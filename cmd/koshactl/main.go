// Command koshactl drives a running koshad's virtual file system from the
// command line, the way a user shell would use the /kosha mount:
//
//	koshactl -node 127.0.0.1:7001 put /alice/doc.txt local.txt
//	koshactl -node 127.0.0.1:7002 get /alice/doc.txt
//	koshactl -node 127.0.0.1:7001 ls /alice
//	koshactl -node 127.0.0.1:7001 mkdir /projects/sim
//	koshactl -node 127.0.0.1:7001 rm /projects
//	koshactl -node 127.0.0.1:7001 stat /alice/doc.txt
//	koshactl -node 127.0.0.1:7001 status
//
// Any node answers for any path: location is transparent.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/localfs"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/tcpnet"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: koshactl -node host:port <command> [args]

commands:
  ls <path>            list a virtual directory
  get <path>           print a file's contents to stdout
  put <path> [file]    store a file (stdin when no local file given)
  mkdir <path>         create a directory (and ancestors)
  rm <path>            remove a file or subtree
  stat <path>          show entry attributes
  status               show the node's store occupancy and overlay identity
  cluster              crawl the overlay from this node and summarize every member
  tree <path>          recursively list a virtual subtree
  stats [cluster]      per-op latency percentiles, route hops, and overlay events
                       for this node (or aggregated over the whole cluster)
  trace dump [n]       print the n most recent ops (default: all), each as a
                       span tree headed by its trace id
  trace -id <hex>      collect span records from every live node and print
                       the assembled cross-node causal tree for one trace id
  trace -slow [n]      print the slow-op flight recorder (never-evicted ring)
  samples [n]          dump retained time-series samples (CSV; -json for JSON)

trace dump filters:
  -op <OP>             keep only traces of this operation (e.g. LOOKUP)
  -path <prefix>       keep only traces whose path has this prefix
  -min-dur <dur>       keep only traces at least this long (e.g. 2ms)

flags:
  -json                emit stats/trace/samples output as JSON instead of text
`)
	os.Exit(2)
}

func main() {
	node := flag.String("node", "127.0.0.1:7001", "address of any koshad")
	jsonOut := flag.Bool("json", false, "emit stats/trace output as JSON")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	tn := tcpnet.Dialer("koshactl", simnet.LAN100)
	defer tn.Close()
	ctl := &core.CtlClient{Net: tn, From: tn.Addr(), To: simnet.Addr(*node)}

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "koshactl: %v\n", err)
		os.Exit(1)
	}

	switch args[0] {
	case "ls":
		if len(args) != 2 {
			usage()
		}
		ents, _, err := ctl.List(args[1])
		if err != nil {
			fail(err)
		}
		for _, e := range ents {
			marker := ""
			switch e.Type {
			case localfs.TypeDir:
				marker = "/"
			case localfs.TypeSymlink:
				marker = "@"
			}
			fmt.Printf("%s%s\n", e.Name, marker)
		}

	case "get":
		if len(args) != 2 {
			usage()
		}
		data, _, err := ctl.ReadFile(args[1])
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(data)

	case "put":
		if len(args) != 2 && len(args) != 3 {
			usage()
		}
		var data []byte
		var err error
		if len(args) == 3 {
			data, err = os.ReadFile(args[2])
		} else {
			data, err = io.ReadAll(os.Stdin)
		}
		if err != nil {
			fail(err)
		}
		if _, err := ctl.WriteFile(args[1], data); err != nil {
			fail(err)
		}
		fmt.Printf("stored %d bytes at %s\n", len(data), args[1])

	case "mkdir":
		if len(args) != 2 {
			usage()
		}
		if _, err := ctl.MkdirAll(args[1]); err != nil {
			fail(err)
		}

	case "rm":
		if len(args) != 2 {
			usage()
		}
		if _, err := ctl.RemoveAll(args[1]); err != nil {
			fail(err)
		}

	case "stat":
		if len(args) != 2 {
			usage()
		}
		st, _, err := ctl.Stat(args[1])
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s: %s mode %o size %d\n", args[1], st.Type, st.Mode, st.Size)

	case "status":
		st, _, err := ctl.Status()
		if err != nil {
			fail(err)
		}
		fmt.Printf("node %s\n  nodeId      %s\n  leaf set    %d neighbors\n  files       %d\n  used bytes  %d\n",
			*node, st.NodeID, st.LeafSize, st.Files, st.UsedBytes)
		if st.TotalBytes > 0 {
			fmt.Printf("  capacity    %d (%.1f%% used)\n", st.TotalBytes,
				float64(st.UsedBytes)/float64(st.TotalBytes)*100)
		} else {
			fmt.Printf("  capacity    unlimited\n")
		}

	case "tree":
		if len(args) != 2 {
			usage()
		}
		var walk func(p, indent string)
		walk = func(p, indent string) {
			ents, _, err := ctl.List(p)
			if err != nil {
				fail(err)
			}
			for _, e := range ents {
				child := p + "/" + e.Name
				if p == "/" {
					child = "/" + e.Name
				}
				switch e.Type {
				case localfs.TypeDir:
					fmt.Printf("%s%s/\n", indent, e.Name)
					walk(child, indent+"  ")
				case localfs.TypeSymlink:
					fmt.Printf("%s%s@\n", indent, e.Name)
				default:
					st, _, err := ctl.Stat(child)
					if err != nil {
						fmt.Printf("%s%s\n", indent, e.Name)
						continue
					}
					fmt.Printf("%s%s (%d bytes)\n", indent, e.Name, st.Size)
				}
			}
		}
		fmt.Println(args[1])
		walk(args[1], "  ")

	case "cluster":
		peers, _, err := ctl.Peers()
		if err != nil {
			fail(err)
		}
		addrs := []simnet.Addr{simnet.Addr(*node)}
		for _, p := range peers {
			addrs = append(addrs, p.Addr)
		}
		fmt.Printf("%-22s %-12s %8s %12s %10s\n", "node", "nodeId", "files", "used", "capacity")
		var totFiles, totUsed int64
		for _, a := range addrs {
			peerCtl := &core.CtlClient{Net: tn, From: tn.Addr(), To: a}
			st, _, err := peerCtl.Status()
			if err != nil {
				fmt.Printf("%-22s %s\n", a, "unreachable")
				continue
			}
			capStr := "unlimited"
			if st.TotalBytes > 0 {
				capStr = fmt.Sprintf("%d", st.TotalBytes)
			}
			fmt.Printf("%-22s %-12s %8d %12d %10s\n", a, st.NodeID[:8], st.Files, st.UsedBytes, capStr)
			totFiles += st.Files
			totUsed += st.UsedBytes
		}
		fmt.Printf("%-22s %-12s %8d %12d\n", "TOTAL", "", totFiles, totUsed)

	case "stats":
		if len(args) > 1 && args[1] == "cluster" {
			peers, _, err := ctl.Peers()
			if err != nil {
				fail(err)
			}
			addrs := []simnet.Addr{simnet.Addr(*node)}
			for _, p := range peers {
				addrs = append(addrs, p.Addr)
			}
			var nodes []core.StatsPayload
			agg := core.StatsPayload{Addr: "cluster"}
			for _, a := range addrs {
				peerCtl := &core.CtlClient{Net: tn, From: tn.Addr(), To: a}
				p, _, err := peerCtl.Stats()
				if err != nil {
					fmt.Fprintf(os.Stderr, "koshactl: %s unreachable: %v\n", a, err)
					continue
				}
				nodes = append(nodes, p)
				agg.Stats.Merge(p.Stats)
				agg.Events.Merge(p.Events)
			}
			agg.Events.Recent = nil
			if *jsonOut {
				emitJSON(struct {
					Cluster core.StatsPayload   `json:"cluster"`
					Nodes   []core.StatsPayload `json:"nodes"`
				}{agg, nodes})
				return
			}
			for _, p := range nodes {
				printStats("node "+p.Addr, p)
			}
			printStats(fmt.Sprintf("CLUSTER (%d nodes)", len(nodes)), agg)
			return
		}
		p, _, err := ctl.Stats()
		if err != nil {
			fail(err)
		}
		if *jsonOut {
			emitJSON(p)
			return
		}
		printStats("node "+p.Addr, p)

	case "trace":
		fs := flag.NewFlagSet("trace", flag.ExitOnError)
		idStr := fs.String("id", "", "32-hex-digit trace id to assemble cluster-wide")
		opFilter := fs.String("op", "", "keep only traces of this operation")
		pathFilter := fs.String("path", "", "keep only traces whose path has this prefix")
		minDur := fs.Duration("min-dur", 0, "keep only traces at least this long")
		slow := fs.Bool("slow", false, "dump the slow-op flight recorder instead")
		// Accept "trace dump [n] [-flags]" and "trace [-flags] [n]": strip
		// the dump keyword and a leading count before flag parsing (the
		// stdlib FlagSet stops at the first non-flag argument).
		rest := args[1:]
		isDump := false
		count := 0
		if len(rest) > 0 && rest[0] == "dump" {
			isDump = true
			rest = rest[1:]
		}
		if len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
			var err error
			if count, err = strconv.Atoi(rest[0]); err != nil {
				usage()
			}
			rest = rest[1:]
		}
		fs.Parse(rest)
		switch tail := fs.Args(); len(tail) {
		case 0:
		case 1:
			var err error
			if count, err = strconv.Atoi(tail[0]); err != nil {
				usage()
			}
		default:
			usage()
		}

		var ats []*obs.AssembledTrace
		switch {
		case *idStr != "":
			hi, lo, err := obs.ParseTraceID(*idStr)
			if err != nil {
				fail(err)
			}
			at, err := assembleTrace(tn, simnet.Addr(*node), hi, lo)
			if err != nil {
				fail(err)
			}
			ats = []*obs.AssembledTrace{at}
		case isDump || *slow:
			var recs []obs.SpanRecord
			var err error
			if *slow {
				recs, _, err = ctl.SlowDump(count)
			} else {
				recs, _, err = ctl.TraceDump(count)
			}
			if err != nil {
				fail(err)
			}
			ats = obs.Assemble(recs)
		default:
			usage()
		}
		kept := ats[:0]
		for _, at := range ats {
			if keepTrace(at.Root(), *opFilter, *pathFilter, *minDur) {
				kept = append(kept, at)
			}
		}
		if *jsonOut {
			emitJSON(kept)
			return
		}
		for _, at := range kept {
			printTrace(at)
		}

	case "samples":
		count := 0
		if len(args) == 2 {
			var err error
			if count, err = strconv.Atoi(args[1]); err != nil {
				usage()
			}
		}
		samples, _, err := ctl.Samples(count)
		if err != nil {
			fail(err)
		}
		if *jsonOut {
			emitJSON(samples)
			return
		}
		if err := obs.WriteSamplesCSV(os.Stdout, samples); err != nil {
			fail(err)
		}

	default:
		usage()
	}
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(os.Stderr, "koshactl: %v\n", err)
		os.Exit(1)
	}
}

func dur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

// printStats renders one node's (or the cluster aggregate's) stats payload:
// a per-operation latency table, mean route hop count, and overlay events.
func printStats(title string, p core.StatsPayload) {
	fmt.Println(title)
	if p.NodeID != "" {
		fmt.Printf("  nodeId %s\n", p.NodeID)
	}
	s := p.Stats
	header := false
	for _, name := range s.HistNames() {
		op := strings.TrimPrefix(name, "op.")
		if op == name {
			continue
		}
		h := s.Hists[name]
		if h.Count == 0 {
			continue
		}
		if !header {
			fmt.Printf("  %-14s %8s %10s %10s %10s %10s %10s\n",
				"op", "count", "mean", "p50", "p95", "p99", "max")
			header = true
		}
		fmt.Printf("  %-14s %8d %10s %10s %10s %10s %10s\n", op, h.Count,
			dur(h.Mean()), dur(h.Quantile(50)), dur(h.Quantile(95)),
			dur(h.Quantile(99)), dur(time.Duration(h.MaxNS)))
	}
	if n := s.Counters["route.count"]; n > 0 {
		fmt.Printf("  mean route hops %.2f over %d routes\n",
			s.MeanRatio("route.hops", "route.count"), n)
	}
	fmt.Printf("  ops %d (%d errors)   nfs rpcs %d (%d bytes)\n",
		s.Counters["ops.total"], s.Counters["ops.errors"],
		s.Counters["nfs.rpcs"], s.Counters["nfs.bytes"])
	if hits, misses := s.Counters["repl.sync.digest.hits"], s.Counters["repl.sync.digest.misses"]; hits+misses > 0 {
		fmt.Printf("  replica sync: %d bytes, %d files sent, %d skipped, digest hit %.1f%% (%d/%d)\n",
			s.Counters["repl.sync.bytes"], s.Counters["repl.sync.files.sent"],
			s.Counters["repl.sync.files.skipped"],
			float64(hits)/float64(hits+misses)*100, hits, hits+misses)
	}
	if stored, deduped := s.Counters["repl.cas.blocks.stored"], s.Counters["repl.cas.blocks.deduped"]; stored+deduped > 0 {
		fmt.Printf("  chunk store: %d blocks stored, %d deduped, %d fetched, %d bytes gc'd\n",
			stored, deduped, s.Counters["repl.cas.blocks.fetched"],
			s.Counters["repl.cas.bytes.gc"])
	}
	if ra := s.Counters["io.readahead.hits"] + s.Counters["io.readahead.wasted"]; ra > 0 {
		fmt.Printf("  readahead: %d hits, %d wasted\n",
			s.Counters["io.readahead.hits"], s.Counters["io.readahead.wasted"])
	}
	if fl := s.Counters["io.writeback.flushes"]; fl > 0 {
		fmt.Printf("  write-back: %d writes coalesced over %d flushes\n",
			s.Counters["io.writeback.coalesced"], fl)
	}
	if rounds := s.Counters["maint.scrub.rounds"]; rounds > 0 {
		fmt.Printf("  scrub: %d rounds, %d divergences (%d repaired), %d bad blocks\n",
			rounds, s.Counters["maint.scrub.divergences"],
			s.Counters["maint.scrub.repaired"], s.Counters["maint.scrub.badblocks"])
	}
	if moves := s.Counters["maint.rebalance.moves"]; moves > 0 {
		fmt.Printf("  rebalance: %d moves, %d bytes migrated\n",
			moves, s.Counters["maint.rebalance.bytes"])
	}
	if bp, ok := s.Gauges["maint.util.bp"]; ok {
		fmt.Printf("  utilization %.1f%%\n", float64(bp)/100)
	}
	if len(p.Events.Counts) > 0 {
		kinds := make([]string, 0, len(p.Events.Counts))
		for k := range p.Events.Counts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Printf("  events:")
		for _, k := range kinds {
			fmt.Printf(" %s=%d", k, p.Events.Counts[k])
		}
		fmt.Println()
	}
}

// keepTrace applies the trace filters to an op's root record: operation
// name, path prefix, and minimum total duration. A trace whose root was not
// collected passes only when no filter is set.
func keepTrace(root *obs.SpanRecord, op, pathPrefix string, minDur time.Duration) bool {
	if op == "" && pathPrefix == "" && minDur == 0 {
		return true
	}
	return root != nil &&
		(op == "" || strings.EqualFold(root.Name, op)) &&
		strings.HasPrefix(root.Path, pathPrefix) &&
		time.Duration(root.DurNS) >= minDur
}

// assembleTrace crawls the overlay from seed, collects every live node's
// records of the trace, and reassembles the cluster-wide causal tree.
func assembleTrace(tn simnet.Caller, seed simnet.Addr, hi, lo uint64) (*obs.AssembledTrace, error) {
	from := seed
	if d, ok := tn.(interface{ Addr() simnet.Addr }); ok {
		from = d.Addr()
	}
	seedCtl := &core.CtlClient{Net: tn, From: from, To: seed}
	addrs := []simnet.Addr{seed}
	if peers, _, err := seedCtl.Peers(); err == nil {
		for _, p := range peers {
			addrs = append(addrs, p.Addr)
		}
	}
	var frags []obs.SpanRecord
	reached := 0
	for _, a := range addrs {
		ctl := &core.CtlClient{Net: tn, From: from, To: a}
		p, _, err := ctl.TraceFrag(hi, lo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "koshactl: %s unreachable: %v\n", a, err)
			continue
		}
		reached++
		frags = append(frags, p.Spans...)
	}
	if reached == 0 {
		return nil, fmt.Errorf("no node answered for trace %s", obs.FormatTraceID(hi, lo))
	}
	for _, at := range obs.Assemble(frags) {
		if at.Hi == hi && at.Lo == lo {
			return at, nil
		}
	}
	return nil, fmt.Errorf("trace %s not found on any of %d nodes (evicted or never recorded)",
		obs.FormatTraceID(hi, lo), reached)
}

// printTrace renders one assembled trace as an indented tree under a line
// naming its trace id (the value trace -id accepts). The op's root record
// shows the op, path, originating node, total, serving node, replica
// fan-out, failovers and error; a hop shows the address contacted, its
// nodeId and prefix-match depth; every other record shows its name, node,
// caller and duration.
func printTrace(at *obs.AssembledTrace) {
	fmt.Printf("trace %s  %d spans across %d nodes\n", obs.FormatTraceID(at.Hi, at.Lo), at.SpanCount, at.NodeCount)
	at.Walk(func(depth int, n *obs.TraceNode) {
		sp := n.Span
		indent := strings.Repeat("  ", depth+1)
		switch {
		case sp.Parent == 0:
			fmt.Printf("%s%s %s  origin %s  total %s", indent, sp.Name, sp.Path, sp.Node, dur(time.Duration(sp.DurNS)))
			if sp.ServedBy != "" {
				fmt.Printf("  served by %s", sp.ServedBy)
			}
			if sp.Replicas > 0 {
				fmt.Printf("  replicas %d", sp.Replicas)
			}
			if sp.Failovers > 0 {
				fmt.Printf("  failovers %d", sp.Failovers)
			}
		case sp.Name == obs.SpanHop:
			fmt.Printf("%shop %s (%s) prefix %d", indent, sp.Node, sp.NodeID, sp.Prefix)
		default:
			from := sp.From
			if from == "" {
				from = "-"
			}
			fmt.Printf("%s%-24s node=%-16s from=%-16s %s", indent, sp.Name, sp.Node, from, dur(time.Duration(sp.DurNS)))
		}
		if sp.Err != "" {
			fmt.Printf("  err %q", sp.Err)
		}
		fmt.Println()
	})
}
