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
	"errors"
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

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: koshactl -node host:port <command> [args]

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
  trace dump [n]       dump the n most recent operation traces (default: all)
  trace -id <hex>      collect span fragments from every live node and print
                       the assembled cross-node causal tree for one trace id
  trace -slow [n]      dump the slow-op flight recorder (never-evicted ring)
  samples [n]          dump retained time-series samples (CSV; -json for JSON)

trace dump filters:
  -op <OP>             keep only traces of this operation (e.g. LOOKUP)
  -path <prefix>       keep only traces whose path has this prefix
  -min-dur <dur>       keep only traces at least this long (e.g. 2ms)

flags:
  -json                emit stats/trace/samples output as JSON instead of text
`)
}

// errUsage ends a command with the usage text and exit status 2; errFlags
// with status 2 alone, the flag set having said what is wrong.
var (
	errUsage = errors.New("usage")
	errFlags = errors.New("bad flags")
)

func main() {
	tn := tcpnet.Dialer("koshactl", simnet.LAN100)
	code := run(tn, tn.Addr(), "127.0.0.1:7001", os.Args[1:], os.Stdout, os.Stderr)
	tn.Close()
	os.Exit(code)
}

// cli is one invocation: the transport and the koshad it talks to, and where
// its output goes.
type cli struct {
	net            simnet.Caller
	from, node     simnet.Addr
	ctl            *core.CtlClient
	jsonOut        bool
	stdout, stderr io.Writer
}

// run is the whole command behind main: it parses args (the command line
// after the program name; node is the koshad addressed unless -node names
// another), talks to that koshad from `from` over net, and returns the exit
// status: 0, 1 after an error (printed once, "koshactl: " first), 2 after a
// usage error.
func run(net simnet.Caller, from, node simnet.Addr, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("koshactl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(stderr) }
	nodeFlag := fs.String("node", string(node), "address of any koshad")
	jsonOut := fs.Bool("json", false, "emit stats/trace output as JSON")
	if fs.Parse(args) != nil {
		return 2
	}
	c := &cli{net: net, from: from, node: simnet.Addr(*nodeFlag), jsonOut: *jsonOut, stdout: stdout, stderr: stderr}
	c.ctl = c.ctlTo(c.node)
	switch err := c.command(fs.Args()); {
	case err == nil:
		return 0
	case err == errUsage:
		usage(stderr)
		return 2
	case err == errFlags:
		return 2
	default:
		fmt.Fprintf(stderr, "koshactl: %v\n", err)
		return 1
	}
}

func (c *cli) ctlTo(node simnet.Addr) *core.CtlClient {
	return &core.CtlClient{Net: c.net, From: c.from, To: node}
}

// command runs one subcommand.
func (c *cli) command(args []string) error {
	ctl, node, jsonOut, w := c.ctl, c.node, c.jsonOut, c.stdout
	if len(args) == 0 {
		return errUsage
	}
	switch args[0] {
	case "ls":
		if len(args) != 2 {
			return errUsage
		}
		ents, _, err := ctl.List(args[1])
		if err != nil {
			return err
		}
		for _, e := range ents {
			marker := ""
			switch e.Type {
			case localfs.TypeDir:
				marker = "/"
			case localfs.TypeSymlink:
				marker = "@"
			}
			fmt.Fprintf(w, "%s%s\n", e.Name, marker)
		}

	case "get":
		if len(args) != 2 {
			return errUsage
		}
		data, _, err := ctl.ReadFile(args[1])
		if err != nil {
			return err
		}
		w.Write(data)

	case "put":
		if len(args) != 2 && len(args) != 3 {
			return errUsage
		}
		var data []byte
		var err error
		if len(args) == 3 {
			data, err = os.ReadFile(args[2])
		} else {
			data, err = io.ReadAll(os.Stdin)
		}
		if err != nil {
			return err
		}
		if _, err := ctl.WriteFile(args[1], data); err != nil {
			return err
		}
		fmt.Fprintf(w, "stored %d bytes at %s\n", len(data), args[1])

	case "mkdir":
		if len(args) != 2 {
			return errUsage
		}
		if _, err := ctl.MkdirAll(args[1]); err != nil {
			return err
		}

	case "rm":
		if len(args) != 2 {
			return errUsage
		}
		if _, err := ctl.RemoveAll(args[1]); err != nil {
			return err
		}

	case "stat":
		if len(args) != 2 {
			return errUsage
		}
		st, _, err := ctl.Stat(args[1])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: %s mode %o size %d\n", args[1], st.Type, st.Mode, st.Size)

	case "status":
		st, _, err := ctl.Status()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "node %s\n  nodeId      %s\n  leaf set    %d neighbors\n  files       %d\n  used bytes  %d\n",
			node, st.NodeID, st.LeafSize, st.Files, st.UsedBytes)
		if st.TotalBytes > 0 {
			fmt.Fprintf(w, "  capacity    %d (%.1f%% used)\n", st.TotalBytes,
				float64(st.UsedBytes)/float64(st.TotalBytes)*100)
		} else {
			fmt.Fprintf(w, "  capacity    unlimited\n")
		}

	case "tree":
		if len(args) != 2 {
			return errUsage
		}
		var walk func(p, indent string) error
		walk = func(p, indent string) error {
			ents, _, err := ctl.List(p)
			if err != nil {
				return err
			}
			for _, e := range ents {
				child := p + "/" + e.Name
				if p == "/" {
					child = "/" + e.Name
				}
				switch e.Type {
				case localfs.TypeDir:
					fmt.Fprintf(w, "%s%s/\n", indent, e.Name)
					if err := walk(child, indent+"  "); err != nil {
						return err
					}
				case localfs.TypeSymlink:
					fmt.Fprintf(w, "%s%s@\n", indent, e.Name)
				default:
					st, _, err := ctl.Stat(child)
					if err != nil {
						fmt.Fprintf(w, "%s%s\n", indent, e.Name)
						continue
					}
					fmt.Fprintf(w, "%s%s (%d bytes)\n", indent, e.Name, st.Size)
				}
			}
			return nil
		}
		fmt.Fprintln(w, args[1])
		return walk(args[1], "  ")

	case "cluster":
		peers, _, err := ctl.Peers()
		if err != nil {
			return err
		}
		addrs := []simnet.Addr{node}
		for _, p := range peers {
			addrs = append(addrs, p.Addr)
		}
		fmt.Fprintf(w, "%-22s %-12s %8s %12s %10s\n", "node", "nodeId", "files", "used", "capacity")
		var totFiles, totUsed int64
		for _, a := range addrs {
			peerCtl := c.ctlTo(a)
			st, _, err := peerCtl.Status()
			if err != nil {
				fmt.Fprintf(w, "%-22s %s\n", a, "unreachable")
				continue
			}
			capStr := "unlimited"
			if st.TotalBytes > 0 {
				capStr = fmt.Sprintf("%d", st.TotalBytes)
			}
			fmt.Fprintf(w, "%-22s %-12s %8d %12d %10s\n", a, st.NodeID[:8], st.Files, st.UsedBytes, capStr)
			totFiles += st.Files
			totUsed += st.UsedBytes
		}
		fmt.Fprintf(w, "%-22s %-12s %8d %12d\n", "TOTAL", "", totFiles, totUsed)

	case "stats":
		if len(args) > 1 && args[1] == "cluster" {
			peers, _, err := ctl.Peers()
			if err != nil {
				return err
			}
			addrs := []simnet.Addr{node}
			for _, p := range peers {
				addrs = append(addrs, p.Addr)
			}
			var nodes []core.StatsPayload
			agg := core.StatsPayload{Addr: "cluster"}
			for _, a := range addrs {
				peerCtl := c.ctlTo(a)
				p, _, err := peerCtl.Stats()
				if err != nil {
					fmt.Fprintf(c.stderr, "koshactl: %s unreachable: %v\n", a, err)
					continue
				}
				nodes = append(nodes, p)
				agg.Stats.Merge(p.Stats)
				agg.Events.Merge(p.Events)
			}
			agg.Events.Recent = nil
			if jsonOut {
				return emitJSON(w, struct {
					Cluster core.StatsPayload   `json:"cluster"`
					Nodes   []core.StatsPayload `json:"nodes"`
				}{agg, nodes})
			}
			for _, p := range nodes {
				printStats(w, "node "+p.Addr, p)
			}
			printStats(w, fmt.Sprintf("CLUSTER (%d nodes)", len(nodes)), agg)
			return nil
		}
		p, _, err := ctl.Stats()
		if err != nil {
			return err
		}
		if jsonOut {
			return emitJSON(w, p)
		}
		printStats(w, "node "+p.Addr, p)

	case "trace":
		fs := flag.NewFlagSet("trace", flag.ContinueOnError)
		fs.SetOutput(c.stderr)
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
				return errUsage
			}
			rest = rest[1:]
		}
		if fs.Parse(rest) != nil {
			return errFlags
		}
		switch tail := fs.Args(); len(tail) {
		case 0:
		case 1:
			var err error
			if count, err = strconv.Atoi(tail[0]); err != nil {
				return errUsage
			}
		default:
			return errUsage
		}

		if *idStr != "" {
			hi, lo, err := obs.ParseTraceID(*idStr)
			if err != nil {
				return err
			}
			at, err := c.assembleTrace(hi, lo)
			if err != nil {
				return err
			}
			if jsonOut {
				return emitJSON(w, at)
			}
			printAssembled(w, at)
			return nil
		}

		if !isDump && !*slow {
			return errUsage
		}

		var traces []obs.Trace
		var err error
		if *slow {
			traces, _, err = ctl.SlowDump(count)
		} else {
			traces, _, err = ctl.TraceDump(count)
		}
		if err != nil {
			return err
		}
		traces = filterTraces(traces, *opFilter, *pathFilter, *minDur)
		if jsonOut {
			return emitJSON(w, traces)
		}
		for _, t := range traces {
			printTrace(w, t)
		}

	case "samples":
		count := 0
		if len(args) == 2 {
			var err error
			if count, err = strconv.Atoi(args[1]); err != nil {
				return errUsage
			}
		}
		samples, _, err := ctl.Samples(count)
		if err != nil {
			return err
		}
		if jsonOut {
			return emitJSON(w, samples)
		}
		return obs.WriteSamplesCSV(w, samples)

	default:
		return errUsage
	}
	return nil
}

func emitJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func dur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

// printStats renders one node's (or the cluster aggregate's) stats payload:
// a per-operation latency table, mean route hop count, and overlay events.
func printStats(w io.Writer, title string, p core.StatsPayload) {
	fmt.Fprintln(w, title)
	if p.NodeID != "" {
		fmt.Fprintf(w, "  nodeId %s\n", p.NodeID)
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
			fmt.Fprintf(w, "  %-14s %8s %10s %10s %10s %10s %10s\n",
				"op", "count", "mean", "p50", "p95", "p99", "max")
			header = true
		}
		fmt.Fprintf(w, "  %-14s %8d %10s %10s %10s %10s %10s\n", op, h.Count,
			dur(h.Mean()), dur(h.Quantile(50)), dur(h.Quantile(95)),
			dur(h.Quantile(99)), dur(time.Duration(h.MaxNS)))
	}
	if n := s.Counters["route.count"]; n > 0 {
		fmt.Fprintf(w, "  mean route hops %.2f over %d routes\n",
			s.MeanRatio("route.hops", "route.count"), n)
	}
	fmt.Fprintf(w, "  ops %d (%d errors)   nfs rpcs %d (%d bytes)\n",
		s.Counters["ops.total"], s.Counters["ops.errors"],
		s.Counters["nfs.rpcs"], s.Counters["nfs.bytes"])
	if hits, misses := s.Counters["repl.sync.digest.hits"], s.Counters["repl.sync.digest.misses"]; hits+misses > 0 {
		fmt.Fprintf(w, "  replica sync: %d bytes fetched, %d files pulled, %d skipped, digest hit %.1f%% (%d/%d)\n",
			s.Counters["repl.fetch.bytes"], s.Counters["repl.sync.files.sent"],
			s.Counters["repl.sync.files.skipped"],
			float64(hits)/float64(hits+misses)*100, hits, hits+misses)
	}
	if stored, deduped := s.Counters["repl.cas.blocks.stored"], s.Counters["repl.cas.blocks.deduped"]; stored+deduped > 0 {
		fmt.Fprintf(w, "  chunk store: %d blocks stored, %d deduped, %d fetched, %d bytes gc'd\n",
			stored, deduped, s.Counters["repl.cas.blocks.fetched"],
			s.Counters["repl.cas.bytes.gc"])
	}
	if ra := s.Counters["io.readahead.hits"] + s.Counters["io.readahead.wasted"]; ra > 0 {
		fmt.Fprintf(w, "  readahead: %d hits, %d wasted\n",
			s.Counters["io.readahead.hits"], s.Counters["io.readahead.wasted"])
	}
	if fl := s.Counters["io.writeback.flushes"]; fl > 0 {
		fmt.Fprintf(w, "  write-back: %d writes coalesced over %d flushes\n",
			s.Counters["io.writeback.coalesced"], fl)
	}
	if rounds := s.Counters["maint.scrub.rounds"]; rounds > 0 {
		fmt.Fprintf(w, "  scrub: %d rounds, %d divergences (%d repaired), %d bad blocks\n",
			rounds, s.Counters["maint.scrub.divergences"],
			s.Counters["maint.scrub.repaired"], s.Counters["maint.scrub.badblocks"])
	}
	if moves := s.Counters["maint.rebalance.moves"]; moves > 0 {
		fmt.Fprintf(w, "  rebalance: %d moves, %d bytes migrated\n",
			moves, s.Counters["maint.rebalance.bytes"])
	}
	if bp, ok := s.Gauges["maint.util.bp"]; ok {
		fmt.Fprintf(w, "  utilization %.1f%%\n", float64(bp)/100)
	}
	if len(p.Events.Counts) > 0 {
		kinds := make([]string, 0, len(p.Events.Counts))
		for k := range p.Events.Counts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Fprintf(w, "  events:")
		for _, k := range kinds {
			fmt.Fprintf(w, " %s=%d", k, p.Events.Counts[k])
		}
		fmt.Fprintln(w)
	}
}

// filterTraces applies the trace dump filters client-side: operation name,
// path prefix, and minimum total duration.
func filterTraces(ts []obs.Trace, op, pathPrefix string, minDur time.Duration) []obs.Trace {
	if op == "" && pathPrefix == "" && minDur == 0 {
		return ts
	}
	out := ts[:0]
	for _, t := range ts {
		if op != "" && !strings.EqualFold(t.Op, op) {
			continue
		}
		if pathPrefix != "" && !strings.HasPrefix(t.Path, pathPrefix) {
			continue
		}
		if minDur > 0 && time.Duration(t.TotalNS) < minDur {
			continue
		}
		out = append(out, t)
	}
	return out
}

// assembleTrace crawls the overlay from the addressed node, collects every live node's
// fragment of the trace (origin record plus server spans), and reassembles
// the cluster-wide causal tree.
func (c *cli) assembleTrace(hi, lo uint64) (*obs.AssembledTrace, error) {
	addrs := []simnet.Addr{c.node}
	if peers, _, err := c.ctl.Peers(); err == nil {
		for _, p := range peers {
			addrs = append(addrs, p.Addr)
		}
	}
	var origin *obs.Trace
	var frags []obs.Span
	reached := 0
	for _, a := range addrs {
		p, _, err := c.ctlTo(a).TraceFrag(hi, lo)
		if err != nil {
			fmt.Fprintf(c.stderr, "koshactl: %s unreachable: %v\n", a, err)
			continue
		}
		reached++
		if p.Origin != nil && origin == nil {
			origin = p.Origin
		}
		frags = append(frags, p.Spans...)
	}
	if reached == 0 {
		return nil, fmt.Errorf("no node answered for trace %s", obs.FormatTraceID(hi, lo))
	}
	at := obs.Assemble(hi, lo, origin, frags)
	if at.SpanCount == 0 && at.Origin == nil {
		return nil, fmt.Errorf("trace %s not found on any of %d nodes (evicted or never recorded)",
			obs.FormatTraceID(hi, lo), reached)
	}
	return at, nil
}

// printSpan renders one span, client-side stage or server fragment alike,
// indented to its depth in the causal tree.
func printSpan(w io.Writer, depth int, sp obs.Span) {
	fmt.Fprintf(w, "  %s%-24s node=%-16s from=%-16s %s",
		strings.Repeat("  ", depth), sp.Name, sp.Node, sp.From, dur(time.Duration(sp.DurNS)))
	if sp.Err != "" {
		fmt.Fprintf(w, "  err %q", sp.Err)
	}
	fmt.Fprintln(w)
}

// printAssembled renders the cluster-wide causal tree of one trace: the
// origin line (op, path, originating node, end-to-end latency), the overlay
// hops the origin recorded, then the span tree — the origin's own stages
// beside the server spans they caused — with per-edge latency.
func printAssembled(w io.Writer, at *obs.AssembledTrace) {
	fmt.Fprintf(w, "trace %s", obs.FormatTraceID(at.Hi, at.Lo))
	if o := at.Origin; o != nil {
		fmt.Fprintf(w, "  %s %s  origin %s  total %s", o.Op, o.Path, o.Node, dur(time.Duration(o.TotalNS)))
		if o.Failovers > 0 {
			fmt.Fprintf(w, "  failovers %d", o.Failovers)
		}
		if o.Err != "" {
			fmt.Fprintf(w, "  err %q", o.Err)
		}
	}
	fmt.Fprintf(w, "\n  %d spans across %d nodes\n", at.SpanCount, at.NodeCount)
	if o := at.Origin; o != nil {
		for _, h := range o.Hops {
			fmt.Fprintf(w, "  hop %s (%s) prefix %d\n", h.Addr, h.ID, h.Prefix)
		}
	}
	at.Walk(func(depth int, n *obs.TraceNode) { printSpan(w, depth, n.Span) })
}

// printTrace renders one operation trace as a compact multi-line record: the
// header (with the id trace -id takes), the overlay hops, the client stages.
func printTrace(w io.Writer, t obs.Trace) {
	fmt.Fprintf(w, "#%d %s %s  total %s  id %s", t.ID, t.Op, t.Path, dur(time.Duration(t.TotalNS)), obs.FormatTraceID(t.Hi, t.Lo))
	if t.ServedBy != "" {
		fmt.Fprintf(w, "  served by %s", t.ServedBy)
	}
	if t.Replicas > 0 {
		fmt.Fprintf(w, "  replicas %d", t.Replicas)
	}
	if t.Failovers > 0 {
		fmt.Fprintf(w, "  failovers %d", t.Failovers)
	}
	if t.Err != "" {
		fmt.Fprintf(w, "  err %q", t.Err)
	}
	fmt.Fprintln(w)
	for _, h := range t.Hops {
		fmt.Fprintf(w, "    hop %s (%s) prefix %d\n", h.Addr, h.ID, h.Prefix)
	}
	for _, sp := range t.Spans {
		printSpan(w, 1, sp)
	}
}
