package main

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/simnet"
	"repro/internal/tcpnet"
)

// kcluster is an in-process Kosha cluster built the way internal/cluster
// builds one (same node ids, addresses, per-node seeds, join order and
// stabilization), except that the benchmark owns the construction so a traced
// run can hand each node a wrapped transport and store.
type kcluster struct {
	cfg   core.Config
	rec   *recorder
	mt    *meter
	nodes []*core.Node
	raw   []*localfs.FS // each node's store, unwrapped, for fault injection
	down  []bool

	net   *simnet.Network // in-process workloads
	tcps  []*tcpnet.Net   // the tcp workload: one loopback listener per node
	bytes atomic.Int64    // wire bytes counted by tcpnet wrappers

	idState uint64
	base    map[string]uint64 // node counters when the window opened
}

func buildCluster(nodes int, seed uint64, cfg core.Config, tcp bool, rec *recorder, mt *meter) (*kcluster, error) {
	c := &kcluster{cfg: cfg, rec: rec, mt: mt, idState: seed}
	if !tcp {
		c.net = simnet.New(simnet.LAN100)
	}
	for i := 0; i < nodes; i++ {
		if err := c.addNode(i); err != nil {
			c.close()
			return nil, err
		}
	}
	// Overlay repair then replica sync, as cluster.Stabilize does after a
	// bring-up.
	for round := 0; round < 3; round++ {
		for _, nd := range c.nodes {
			nd.Overlay().Stabilize()
			nd.Overlay().RepairTable()
		}
	}
	for round := 0; round < 2; round++ {
		for _, nd := range c.nodes {
			nd.SyncReplicas()
		}
	}
	return c, nil
}

func (c *kcluster) addNode(i int) error {
	var addr simnet.Addr
	var tr simnet.Transport
	if c.net != nil {
		addr = simnet.Addr(fmt.Sprintf("node%02d", i))
		tr = c.net
		if c.rec != nil {
			tr = newTracedNet(c.net, c.rec, "simnet", new(atomic.Int64))
		}
	} else {
		ln, err := tcpnet.Listen("127.0.0.1:0", simnet.LAN100)
		if err != nil {
			return err
		}
		c.tcps = append(c.tcps, ln)
		addr = ln.Addr()
		// Simulated message costs count address bytes; loopback ports are
		// always five digits, so every run sees the same lengths.
		if len(addr) != len("127.0.0.1:00000") {
			return fmt.Errorf("tcp: listener address %q is not 15 bytes long", addr)
		}
		tr = newTracedNet(ln, c.rec, "tcpnet", &c.bytes)
	}
	nodeID := id.Rand128(&c.idState)
	cfg := c.cfg
	cfg.Seed = binary.BigEndian.Uint64(nodeID[:8])
	raw := localfs.New(cfg.Capacity, simnet.Disk7200)
	var st localfs.FileSystem = raw
	if c.rec != nil {
		st = &tracedStore{fs: raw, rec: c.rec}
	}
	nd := core.NewNodeWithStore(addr, nodeID, tr, cfg, st)
	var boot simnet.Addr
	if len(c.nodes) > 0 {
		boot = c.nodes[0].Addr()
	}
	o := c.rec.begin("pastry.join")
	_, err := nd.Join(boot)
	c.rec.end(o)
	if err != nil {
		return fmt.Errorf("join %s: %w", addr, err)
	}
	c.nodes = append(c.nodes, nd)
	c.raw = append(c.raw, raw)
	c.down = append(c.down, false)
	return nil
}

// close stops the tcp workload's listeners and connection goroutines and
// waits for them. It is a no-op on a nil cluster (a failed build).
func (c *kcluster) close() {
	if c == nil {
		return
	}
	for _, t := range c.tcps {
		t.Close()
	}
}

func (c *kcluster) mount() *client {
	return &client{m: c.nodes[0].NewMount(), mt: c.mt, rec: c.rec}
}

// wireBytes is every request and response byte the transport carried.
func (c *kcluster) wireBytes() int64 {
	if c.net != nil {
		return int64(c.net.Stats().Bytes)
	}
	return c.bytes.Load()
}

// storedBytes sums what every node's store holds.
func (c *kcluster) storedBytes() int64 {
	var n int64
	for _, nd := range c.nodes {
		n += nd.Store().Used()
	}
	return n
}

// timed runs one maintenance call as a span, adding its simulated cost to
// the run's repair time and to the span's simulated total.
func (c *kcluster) timed(name string, f func() simnet.Cost) simnet.Cost {
	o := c.rec.begin(name)
	cost := f()
	c.rec.end(o)
	c.rec.addSim(name, cost)
	c.mt.repair(cost)
	return cost
}

// maintain is one maintenance round on every live node: overlay repair, then
// replica sync, then a maintenance tick (the anti-entropy scrub).
func (c *kcluster) maintain(syncRounds int) {
	for i, nd := range c.nodes {
		if !c.down[i] {
			c.timed("pastry.stabilize", func() simnet.Cost {
				return simnet.Seq(nd.Overlay().Stabilize(), nd.Overlay().RepairTable())
			})
		}
	}
	for round := 0; round < syncRounds; round++ {
		for i, nd := range c.nodes {
			if !c.down[i] {
				c.timed("repl.sync", nd.SyncReplicas)
			}
		}
	}
	for i, nd := range c.nodes {
		if !c.down[i] {
			c.timed("maint.tick", nd.Maint().Tick)
		}
	}
}

// crash takes node i off the network.
func (c *kcluster) crash(i int) {
	c.nodes[i].Fail()
	c.down[i] = true
}

// revive restarts node i with a fresh identifier and an empty store
// (Section 4.3.2), joining through the next live node.
func (c *kcluster) revive(i int) error {
	var seed simnet.Addr
	for off := 1; off < len(c.nodes); off++ {
		if j := (i + off) % len(c.nodes); !c.down[j] {
			seed = c.nodes[j].Addr()
			break
		}
	}
	o := c.rec.begin("pastry.join")
	_, err := c.nodes[i].Revive(id.Rand128(&c.idState), seed)
	c.rec.end(o)
	if err != nil {
		return fmt.Errorf("revive %s: %w", c.nodes[i].Addr(), err)
	}
	c.down[i] = false
	return nil
}

// asCluster views the nodes as an internal/cluster value for the chaos
// checks, which read only its node list.
func (c *kcluster) asCluster() *cluster.Cluster {
	return &cluster.Cluster{Net: c.net, Nodes: c.nodes}
}

// counters sums every node's registry counters.
func (c *kcluster) counters() map[string]uint64 {
	out := map[string]uint64{}
	for _, nd := range c.nodes {
		for k, v := range nd.Obs().Snapshot().Counters {
			out[k] += v
		}
	}
	return out
}
