package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/simnet"
)

// A pass is one execution of a workload's op stream: set-up, one warm-up
// round, the R fixed rounds that always run, then (in the --trace 1 reference
// pass) identical rounds until the time box is spent. Wall-clock metrics are
// medians over all measured rounds;
// simulated, count and allocation metrics are totals over exactly the fixed
// rounds, so they are a pure function of the seed.

// fixedTotals are the sums over the fixed rounds.
type fixedTotals struct {
	calls      int
	cost       simnet.Cost // Σ cost returned by client calls
	ratioCost  simnet.Cost // Σ of what workload.round returned (sim_vs_nfs_ratio)
	rpcs       uint64      // transport calls, all services
	netBytes   uint64      // request + response bytes over the transport
	userBytes  int64       // payload bytes read + written by the client
	writeBytes int64
	mallocs    uint64
	allocBytes uint64
	heapLive   uint64 // HeapAlloc after a forced GC at the end of the fixed rounds
	storedB    int64  // bytes held by all stores at that point
	liveB      int64  // bytes of the files the model says exist at that point
	ctr        [numCounters]uint64
}

// The node counters (summed over a bed's nodes) the per-layer metrics read.
const (
	ctrRouteCount = iota
	ctrRouteHops
	ctrReadaheadHits
	ctrWritebackCoalesced
	numCounters
)

var counterNames = [numCounters]string{"route.count", "route.hops", "io.readahead.hits", "io.writeback.coalesced"}

func (b *bed) counters() (out [numCounters]uint64) {
	for _, nd := range b.c.Nodes {
		for i, name := range counterNames {
			out[i] += nd.Obs().Counter(name).Load()
		}
	}
	return out
}

type pass struct {
	w        workload
	t        *tracer
	baseline bool

	rounds []roundSummary // measured rounds, the fixed ones first
	fixed  fixedTotals
	bed    *bed // the last bed used
	meter  *meter
}

// warmRound is the round index of the warm-up: distinct from every measured
// round, so the warm-up never replays a measured op stream.
const warmRound = 1 << 20

// setup_s is the one end-to-end metric on the wall clock, and the build box
// changes speed by up to 1.6x for tens of seconds at a time (README.md,
// "Why the wall clock is not bounded"). So every set-up sample is timed beside
// a run of calibrate, a fixed piece of harness-only work of the kind a set-up
// does, and setup_s is the median set-up time in units of its neighbouring
// calibration run, times calibRefS: seconds on a box that runs calibrate in
// calibRefS. A slow phase stretches both and cancels; work added to the
// set-up stretches only one.
const calibRefS = 0.010

var calibSink uint64

// calibrate allocates, formats, hashes, inserts into a map and sorts: 4 000
// buffers of 0.5-2.5 KiB. It calls nothing under internal/, so no change to
// Kosha moves it.
func calibrate() {
	m := map[string][]byte{}
	for i := 0; i < 4000; i++ {
		b := make([]byte, 512+i%2048)
		fill(b, uint64(i), 0)
		m[fmt.Sprintf("/u%03d/d%02d/f%04d", i%7, i%13, i)] = b
	}
	for _, k := range sortedKeys(m) {
		calibSink += contentKey(calibSink, k, uint32(len(m[k])))
	}
}

// setupSample is one timed set-up and the calibration run before it, in
// seconds. A set-up of a few milliseconds is repeated until setupSampleMin has
// passed and the sample is the mean: whether a garbage collection falls into
// one 2 ms set-up or the next is then no longer what the median picks between.
type setupSample struct{ setup, calib float64 }

const setupSampleMin = 20 * time.Millisecond

// sampleSetup times the workload's set-up again and again, at least min times
// and until box is spent. Every bed is dropped as soon as it is built.
func sampleSetup(w workload, min int, box time.Duration) ([]setupSample, error) {
	var out []setupSample
	for start := time.Now(); len(out) < min || time.Since(start) < box; {
		t0 := time.Now()
		calibrate()
		t1 := time.Now()
		n := 0
		for ; n == 0 || time.Since(t1) < setupSampleMin; n++ {
			if _, err := w.setup(warmRound, nil, false); err != nil {
				return nil, err
			}
		}
		out = append(out, setupSample{setup: time.Since(t1).Seconds() / float64(n), calib: t1.Sub(t0).Seconds()})
	}
	return out, nil
}

// setupSeconds reduces the samples to setup_s.
func setupSeconds(samples []setupSample) float64 {
	ratios := make([]float64, len(samples))
	for i, s := range samples {
		ratios[i] = s.setup / s.calib
	}
	return median(ratios) * calibRefS
}

// newPass builds the bed and runs the warm-up round.
func newPass(w workload, t *tracer, baseline bool) (*pass, error) {
	p := &pass{w: w, t: t, baseline: baseline, meter: newMeter(t)}
	if err := p.build(warmRound); err != nil {
		return nil, err
	}
	if err := w.prepare(p.bed, warmRound); err != nil {
		return nil, err
	}
	w.round(p.bed, warmRound, p.meter)
	p.meter.take()
	if t != nil {
		t.spans = t.spans[:0] // keep only the measured rounds' spans
	}
	return p, nil
}

// build sets the bed up for round i.
func (p *pass) build(i int) error {
	p.bed = nil // let the previous cluster go before the next is built
	b, err := p.w.setup(i, p.t, p.baseline)
	p.bed = b
	return err
}

// step runs measured round i; the first fixedRounds() of them are counted
// into the fixed totals.
func (p *pass) step(i int) error {
	w := p.w
	if w.fresh() {
		if err := p.build(i); err != nil {
			return err
		}
	}
	if err := w.prepare(p.bed, i); err != nil {
		return err
	}
	fixed := i < w.fixedRounds()
	counted := fixed && !p.baseline
	var ms0, ms1 runtime.MemStats
	var n0 simnet.Stats
	var c0 [numCounters]uint64
	if counted {
		n0, c0 = p.bed.net.Stats(), p.bed.counters()
		runtime.ReadMemStats(&ms0)
	}
	ratio := w.round(p.bed, i, p.meter)
	f := &p.fixed
	if counted {
		runtime.ReadMemStats(&ms1)
		n1 := p.bed.net.Stats()
		f.rpcs += n1.Messages - n0.Messages
		f.netBytes += n1.Bytes - n0.Bytes
		f.mallocs += ms1.Mallocs - ms0.Mallocs
		f.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		for k, v := range p.bed.counters() {
			f.ctr[k] += v - c0[k]
		}
	}
	s := p.meter.take()
	p.rounds = append(p.rounds, s)
	if fixed {
		f.calls += s.calls
		f.ratioCost += ratio
		f.cost += s.cost
		f.userBytes += s.readBytes + s.writeBytes
		f.writeBytes += s.writeBytes
	}
	if i == w.fixedRounds()-1 && !p.baseline {
		runtime.GC()
		runtime.ReadMemStats(&ms1)
		f.heapLive = ms1.HeapAlloc
		f.storedB = p.bed.stored()
		for _, st := range p.bed.model.files {
			f.liveB += int64(st.size)
		}
	}
	return nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wallMetrics reduces the measured rounds of an untraced pass to the five
// wall-clock numbers, each the median over rounds. They are per-layer metrics
// (no bound): see README.md, "Why the wall clock is not bounded".
func (p *pass) wallMetrics() map[string]metric {
	var ops, p50, p99, rd, wr []float64
	for _, s := range p.rounds {
		ops = append(ops, float64(s.calls)/(float64(s.wall)/1e9))
		p50 = append(p50, float64(s.p50)/1e3)
		p99 = append(p99, float64(s.p99)/1e3)
		if s.clsWall[clRead] > 0 {
			rd = append(rd, float64(s.readBytes)/1e6/(float64(s.clsWall[clRead])/1e9))
		}
		if s.clsWall[clWrite] > 0 {
			wr = append(wr, float64(s.writeBytes)/1e6/(float64(s.clsWall[clWrite])/1e9))
		}
	}
	return map[string]metric{
		"wall.ops_per_s":      {median(ops), "1/s"},
		"wall.op_p50_us":      {median(p50), "us"},
		"wall.op_p99_us":      {median(p99), "us"},
		"wall.read_mb_per_s":  {median(rd), "MB/s"},
		"wall.write_mb_per_s": {median(wr), "MB/s"},
	}
}

// untilBox keeps running measured rounds, after the fixed ones, until box
// has passed since start.
func (p *pass) untilBox(start time.Time, box time.Duration) error {
	for i := len(p.rounds); i < p.w.fixedRounds() || time.Since(start) < box; i++ {
		if err := p.step(i); err != nil {
			return err
		}
	}
	return nil
}

// endToEnd returns the end-to-end metrics. Only setup_s is on the wall clock,
// so the time box goes to sampling the set-up; the other seven are totals over
// the fixed rounds of the timed pass and of the plain-NFS baseline.
func endToEnd(w workload, o options) (map[string]metric, *meter, error) {
	minSetups := 5
	if o.quick {
		minSetups = 1
	}
	setups, err := sampleSetup(w, minSetups, o.box())
	if err != nil {
		return nil, nil, err
	}
	p, err := newPass(w, nil, false)
	if err != nil {
		return nil, nil, err
	}
	if err := p.untilBox(time.Now(), 0); err != nil {
		return nil, nil, err
	}
	w.verify(p.bed, p.meter)
	base, err := newPass(w, nil, true)
	if err != nil {
		return nil, nil, err
	}
	if err := base.untilBox(time.Now(), 0); err != nil {
		return nil, nil, err
	}
	p.meter.add(base.meter)
	var raw, calib []float64
	for _, s := range setups {
		raw, calib = append(raw, s.setup), append(calib, s.calib)
	}
	fmt.Printf("# setup_s: %d samples, raw median %.6g s, calibration median %.6g s (reference %g s)\n",
		len(setups), median(raw), median(calib), calibRefS)

	f := p.fixed
	calls := float64(f.calls)
	out := map[string]metric{
		"setup_s":                 {setupSeconds(setups), "s"},
		"sim_ms_per_op":           {float64(f.cost) / 1e6 / calls, "ms"},
		"sim_vs_nfs_ratio":        {float64(f.ratioCost) / float64(base.fixed.ratioCost), "ratio"},
		"rpcs_per_op":             {float64(f.rpcs) / calls, "count"},
		"net_bytes_per_user_byte": {float64(f.netBytes) / float64(f.userBytes), "ratio"},
		"allocs_per_op":           {float64(f.mallocs) / calls, "count"},
		"alloc_kb_per_op":         {float64(f.allocBytes) / 1e3 / calls, "KB"},
		"heap_live_mb":            {float64(f.heapLive) / 1e6, "MB"},
	}
	return out, p.meter, nil
}
