// Command koshad runs one Kosha node as a long-lived daemon over TCP: the
// contributed store, its NFS export, the Pastry overlay endpoint, and the
// koshad interposition logic, plus the koshactl administrative service.
//
// Start a first node, then join more against it:
//
//	koshad -listen 127.0.0.1:7001
//	koshad -listen 127.0.0.1:7002 -join 127.0.0.1:7001
//	koshad -listen 127.0.0.1:7003 -join 127.0.0.1:7001 -capacity 10G
//
// then drive the shared file system from any node with koshactl.
package main

import (
	"crypto/rand"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/diskfs"
	"repro/internal/id"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/tcpnet"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7001", "TCP address to serve on (also the node's overlay address)")
	join := flag.String("join", "", "address of an existing node to join ('' starts a new overlay)")
	capacity := flag.String("capacity", "0", "contributed store bytes (supports K/M/G suffix; 0 = unlimited)")
	level := flag.Int("level", 1, "distribution level L")
	replicas := flag.Int("replicas", 1, "replication factor K")
	redirects := flag.Int("redirects", 4, "capacity redirection attempts (0 = none: only the unsalted placement)")
	stabilize := flag.Duration("stabilize", 10*time.Second, "overlay stabilization interval")
	datadir := flag.String("datadir", "", "persist the contributed store in this directory (default: in-memory)")
	seed := flag.Uint64("seed", 0, "nodeId seed (0 = random)")
	statsEvery := flag.Duration("statsevery", 0, "log per-op latency stats at this interval (0 = off)")
	sampleEvery := flag.Duration("sampleevery", 0, "retain time-series metric samples at this interval (0 = off)")
	probeEvery := flag.Duration("probeevery", 30*time.Second, "refresh overlay-health gauges at this interval (0 = only on /metrics scrape)")
	slowOp := flag.Duration("slowop", 0, "flight-record operations slower than this (0 = off)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and /metrics on this address ('' = off)")
	flag.Parse()

	capBytes, err := parseSize(*capacity)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if capBytes < 0 {
		fmt.Fprintf(os.Stderr, "koshad: -capacity %s: the contributed store cannot be negative\n", *capacity)
		os.Exit(2)
	}
	if *stabilize <= 0 {
		fmt.Fprintf(os.Stderr, "koshad: -stabilize %v: the stabilization interval must be positive\n", *stabilize)
		os.Exit(2)
	}

	tn, err := tcpnet.Listen(*listen, simnet.LAN100)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer tn.Close()

	s := *seed
	if s == 0 {
		var b [8]byte
		rand.Read(b[:])
		s = binary.BigEndian.Uint64(b[:])
	}
	nodeID := id.Rand128(&s)

	cfg := config(*level, *replicas, *redirects, capBytes, *slowOp)
	var node *core.Node
	if *datadir != "" {
		store, err := diskfs.Open(*datadir, capBytes, simnet.Disk7200)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		node = core.NewNodeWithStore(tn.Addr(), nodeID, tn, cfg, store)
	} else {
		node = core.NewNode(tn.Addr(), nodeID, tn, cfg)
	}
	node.AttachCtl()

	if _, err := node.Join(simnet.Addr(*join)); err != nil {
		fmt.Fprintf(os.Stderr, "koshad: join: %v\n", err)
		os.Exit(1)
	}
	maintain(node)

	fmt.Printf("koshad: serving on %s  nodeId=%s  L=%d K=%d capacity=%s\n",
		tn.Addr(), nodeID.Short(), *level, cfg.Replicas, *capacity)
	if *join != "" {
		fmt.Printf("koshad: joined overlay via %s (%d leaf-set neighbors)\n",
			*join, len(node.Overlay().Leaf()))
	}

	if *pprofAddr != "" {
		// /metrics rides the same listener as pprof: Prometheus text
		// exposition of the node's registry, with the overlay-health
		// gauges refreshed on every scrape.
		http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			node.ProbeHealth()
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			if err := obs.WriteProm(w, node.Obs().Snapshot()); err != nil {
				fmt.Fprintf(os.Stderr, "koshad: metrics: %v\n", err)
			}
		})
		go func() {
			fmt.Printf("koshad: pprof on http://%s/debug/pprof/, metrics on http://%s/metrics\n", *pprofAddr, *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "koshad: pprof: %v\n", err)
			}
		}()
	}

	if *sampleEvery > 0 {
		node.Sampler().Start(*sampleEvery)
		defer node.Sampler().Stop()
	}

	var probeC <-chan time.Time
	if *probeEvery > 0 {
		pt := time.NewTicker(*probeEvery)
		defer pt.Stop()
		probeC = pt.C
	}

	var statsC <-chan time.Time
	if *statsEvery > 0 {
		st := time.NewTicker(*statsEvery)
		defer st.Stop()
		statsC = st.C
	}

	ticker := time.NewTicker(*stabilize)
	defer ticker.Stop()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	for {
		select {
		case <-ticker.C:
			maintain(node)
		case <-statsC:
			logStats(node)
		case <-probeC:
			node.ProbeHealth()
		case <-sigs:
			fmt.Println("koshad: leaving overlay")
			node.Overlay().Leave()
			return
		}
	}
}

// config is the node configuration the flags ask for. A 0 for -replicas or
// -redirects means none, which core.Config spells negative.
func config(level, replicas, redirects int, capBytes int64, slowOp time.Duration) core.Config {
	if replicas == 0 {
		replicas = -1
	}
	if redirects == 0 {
		redirects = -1
	}
	// A real transport serves real clients: histogram samples are wall
	// time, not the modeled simnet cost.
	return core.Config{DistributionLevel: level, Replicas: replicas, RedirectAttempts: redirects,
		Capacity: capBytes, WallClockStats: true, SlowOpNS: slowOp.Nanoseconds()}
}

// maintain is the daemon's maintenance round, run once after the join and
// then on every -stabilize tick: leaf-set repair, then the routing-table
// repair that leaf-set repair does not cover (a table entry outside the
// leaf set is otherwise never probed and stays dead forever), then replica
// synchronization.
func maintain(node *core.Node) {
	node.Overlay().Stabilize()
	node.Overlay().RepairTable()
	node.SyncReplicas()
}

// logStats prints one line per active op histogram plus the route-hop mean,
// the daemon's periodic observability heartbeat.
func logStats(node *core.Node) {
	s := node.Obs().Snapshot()
	for _, name := range s.HistNames() {
		h := s.Hists[name]
		if h.Count == 0 {
			continue
		}
		fmt.Printf("koshad: stats %-16s count=%d mean=%s p50=%s p95=%s p99=%s\n",
			name, h.Count, rnd(h.Mean()), rnd(h.Quantile(50)),
			rnd(h.Quantile(95)), rnd(h.Quantile(99)))
	}
	if n := s.Counters["route.count"]; n > 0 {
		fmt.Printf("koshad: stats route hops mean=%.2f routes=%d\n",
			s.MeanRatio("route.hops", "route.count"), n)
	}
	ev := node.Events().Snapshot(0)
	if len(ev.Counts) > 0 {
		fmt.Printf("koshad: stats events failover=%d resync=%d join=%d departure=%d\n",
			ev.Counts[obs.EvFailover], ev.Counts[obs.EvResync],
			ev.Counts[obs.EvJoin], ev.Counts[obs.EvDeparture])
	}
}

func rnd(d time.Duration) string { return d.Round(time.Microsecond).String() }

// parseSize parses "10G"/"512M"/"3K"/plain bytes.
func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v > math.MaxInt64/mult || v < math.MinInt64/mult {
		return 0, fmt.Errorf("koshad: bad size %q", s)
	}
	return v * mult, nil
}
