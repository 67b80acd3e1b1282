package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/simnet"
)

// SyncOptions parameterizes the anti-entropy experiment: a replicated
// N-file subtree goes one file stale on its replica (the mirror is lost to
// a partition), and the Merkle delta sync is charged for the bytes it moves
// to converge again.
type SyncOptions struct {
	Nodes    int
	Files    int // files in the replicated subtree
	FileSize int // bytes per file
	Seed     uint64
}

// DefaultSyncOptions uses the acceptance shape: one stale file in a
// 100-file tree.
func DefaultSyncOptions() SyncOptions {
	return SyncOptions{
		Nodes:    4,
		Files:    100,
		FileSize: 4 << 10,
		Seed:     17,
	}
}

// SyncResult compares the Merkle delta sync for a one-file staleness
// against a full-tree re-push. The full re-push is not run: FullBytes is
// the tree's payload (Files x FileSize), the least such a push must ship.
type SyncResult struct {
	Nodes        int     `json:"nodes"`
	Files        int     `json:"files"`
	FileSize     int     `json:"file_size"`
	FullBytes    uint64  `json:"full_bytes"`
	DeltaBytes   uint64  `json:"delta_bytes"`
	DeltaPct     float64 `json:"delta_pct"`     // delta bytes as % of full bytes
	FilesSent    uint64  `json:"files_sent"`    // shipped by the delta sync
	FilesSkipped uint64  `json:"files_skipped"` // proven current by digest
}

// runSyncArm builds a cluster, replicates a Files-file subtree, makes the
// replica exactly one file stale by partitioning the primary from it during
// a touch, heals the network, and returns the kosha-service bytes the
// primary's next SyncReplicas moves.
func runSyncArm(opts SyncOptions) (uint64, uint64, uint64, error) {
	cfg := koshaCfg()
	// Membership-driven resync would heal the staleness behind the
	// experiment's back; every sync here is driven explicitly.
	cfg.NoAutoSync = true
	c, err := cluster.New(cluster.Options{Nodes: opts.Nodes, Seed: opts.Seed, Config: cfg})
	if err != nil {
		return 0, 0, 0, err
	}

	m := c.Mount(0)
	data := make([]byte, opts.FileSize)
	for i := range data {
		data[i] = byte(i)
	}
	for f := 0; f < opts.Files; f++ {
		if _, err := m.WriteFile(fmt.Sprintf("/sync00/f%03d", f), data); err != nil {
			return 0, 0, 0, fmt.Errorf("populate f%03d: %w", f, err)
		}
	}
	c.Stabilize()

	pl, _, err := c.Nodes[0].ResolvePath("/sync00")
	if err != nil {
		return 0, 0, 0, fmt.Errorf("resolve /sync00: %w", err)
	}
	var primary *core.Node
	for _, nd := range c.Nodes {
		if nd.Addr() == pl.Node {
			primary = nd
		}
	}
	if primary == nil {
		return 0, 0, 0, fmt.Errorf("primary %s not in cluster", pl.Node)
	}
	cands := primary.Overlay().ReplicaCandidates(cfg.Replicas)
	if len(cands) == 0 {
		return 0, 0, 0, fmt.Errorf("primary %s has no replica candidates", pl.Node)
	}
	replica := cands[0].Addr

	// Touch one file (same size, different bytes) while the replica is
	// unreachable: the primary applies the write and bumps its version, the
	// mirror is dropped, and the replica is now stale by exactly that file.
	c.Net.SetPartition(func(a, b simnet.Addr) bool {
		return (a == pl.Node && b == replica) || (a == replica && b == pl.Node)
	})
	touched := append([]byte(nil), data...)
	touched[0] ^= 0xff
	pm := primary.NewMount()
	if _, err := pm.WriteFile(fmt.Sprintf("/sync00/f%03d", opts.Files/2), touched); err != nil {
		c.Net.SetPartition(nil)
		return 0, 0, 0, fmt.Errorf("touch: %w", err)
	}
	c.Net.SetPartition(nil)
	// Overlay repair only — a full Stabilize would run everyone's replica
	// sync and converge the tree before the measured refresh.
	for round := 0; round < 3; round++ {
		for _, nd := range c.Nodes {
			nd.Overlay().Stabilize()
		}
	}

	before := primary.Obs().Snapshot().Counters
	c.Net.ResetStats()
	primary.SyncReplicas()
	bytes := c.Net.ServiceStats(core.KoshaService).Bytes
	after := primary.Obs().Snapshot().Counters
	sent := after["repl.sync.files.sent"] - before["repl.sync.files.sent"]
	skipped := after["repl.sync.files.skipped"] - before["repl.sync.files.skipped"]
	return bytes, sent, skipped, nil
}

// RunSync measures the delta sync and sets it against the full re-push's
// payload.
func RunSync(opts SyncOptions) (*SyncResult, error) {
	full := uint64(opts.Files) * uint64(opts.FileSize)
	delta, sent, skipped, err := runSyncArm(opts)
	if err != nil {
		return nil, fmt.Errorf("delta arm: %w", err)
	}
	res := &SyncResult{
		Nodes:        opts.Nodes,
		Files:        opts.Files,
		FileSize:     opts.FileSize,
		FullBytes:    full,
		DeltaBytes:   delta,
		FilesSent:    sent,
		FilesSkipped: skipped,
	}
	if full > 0 {
		res.DeltaPct = float64(delta) / float64(full) * 100
	}
	return res, nil
}

// FprintJSON emits the result as an indented JSON document; make ci's
// smoke run greps it for the byte fields.
func (r *SyncResult) FprintJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Fprint renders the result as a text table.
func (r *SyncResult) Fprint(w io.Writer, opts SyncOptions) {
	fmt.Fprintf(w, "Replica refresh after a 1-file touch, %d nodes (%d files x %d B)\n",
		r.Nodes, r.Files, r.FileSize)
	fmt.Fprintf(w, "%-22s %12s\n", "strategy", "bytes moved")
	fmt.Fprintf(w, "%-22s %12d\n", "full re-push", r.FullBytes)
	fmt.Fprintf(w, "%-22s %12d\n", "merkle delta", r.DeltaBytes)
	fmt.Fprintf(w, "delta sync moved %.1f%% of the full push; shipped %d file(s), digests skipped %d\n",
		r.DeltaPct, r.FilesSent, r.FilesSkipped)
}

// FprintCSV renders the comparison as CSV.
func (r *SyncResult) FprintCSV(w io.Writer, opts SyncOptions) {
	fmt.Fprintln(w, "strategy,bytes,files_sent,files_skipped")
	fmt.Fprintf(w, "full,%d,,\n", r.FullBytes)
	fmt.Fprintf(w, "delta,%d,%d,%d\n", r.DeltaBytes, r.FilesSent, r.FilesSkipped)
}
