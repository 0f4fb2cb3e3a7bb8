package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/mab"
)

// perLayer runs the outside-in traced pass and the layer ledger and returns
// the per-layer metrics: an untraced reference pass and a traced pass of the
// same op stream over the fixed rounds, interleaved round by round so that
// both see the same machine (their difference is the tracing overhead), then
// the ledger's direct calls into each layer.
func perLayer(w workload, o options) (map[string]metric, *meter, error) {
	ref, err := newPass(w, nil, false)
	if err != nil {
		return nil, nil, err
	}
	t := newTracer()
	tp, err := newPass(w, t, false)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	for i := 0; i < w.fixedRounds(); i++ {
		if err := ref.step(i); err != nil {
			return nil, nil, err
		}
		if err := tp.step(i); err != nil {
			return nil, nil, err
		}
	}
	w.verify(tp.bed, tp.meter)
	tp.bed = nil
	// The reference pass goes on alone for the rest of the box: the wall-clock
	// numbers are its medians over all of its rounds.
	if err := ref.untilBox(start, o.box()); err != nil {
		return nil, nil, err
	}
	if tp.fixed.cost != ref.fixed.cost || tp.fixed.rpcs != ref.fixed.rpcs {
		tp.meter.fail(fmt.Errorf("traced pass diverged from the reference: sim %d vs %d ns, rpcs %d vs %d",
			tp.fixed.cost, ref.fixed.cost, tp.fixed.rpcs, ref.fixed.rpcs))
	}
	m := tp.meter
	m.add(ref.meter)

	out := ref.wallMetrics()
	spanMetrics(out, t, tp)
	classMetrics(out, ref)
	for _, ph := range mab.Phases {
		out["mab.phase_"+ph.String()+"_sim_s"] = metric{ref.bed.mabRes.Seconds(ph), "s"}
	}
	var overhead []float64
	for i := range tp.rounds {
		overhead = append(overhead, (float64(tp.rounds[i].wall)/float64(ref.rounds[i].wall)-1)*100)
	}
	out["trace.overhead_pct"] = metric{median(overhead), "%"}

	if err := ledger(out, o); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(o.outDir, w.name()+".trace.json")
	if err := writeSpans(path, t.spans, t.names); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("# traced pass: %d spans of %d client ops -> %s\n", len(t.spans), tp.fixed.calls, path)
	return out, m, nil
}

// spanMetrics reduces the traced pass's spans to the per-layer numbers.
func spanMetrics(out map[string]metric, t *tracer, tp *pass) {
	self := selfTimes(t.spans)
	type agg struct {
		n           int
		self, bytes int64
	}
	var layers [numLayers]agg
	names := map[string]int{} // client calls by name
	hasRPC := map[int32]bool{}
	var clientDur, selfSum int64
	for i, s := range t.spans {
		a := &layers[s.Layer]
		a.n++
		a.self += self[i]
		a.bytes += s.Bytes
		selfSum += self[i]
		switch s.Layer {
		case layerClient:
			names[t.names[s.Name]]++
			clientDur += s.End - s.Start
		case layerSimnet:
			hasRPC[s.Trace] = true
		}
	}
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	cl, sn, lf := layers[layerClient], layers[layerSimnet], layers[layerLocalfs]
	ops := float64(cl.n)
	out["core.client_self_us_per_op"] = metric{per(float64(cl.self)/1e3, ops), "us"}
	out["core.norpc_op_ratio"] = metric{per(ops-float64(len(hasRPC)), ops), "ratio"}
	for _, l := range []struct {
		layer  layer
		prefix string
	}{{layerKosha, "core.kosha_"}, {layerNFS, "nfs."}, {layerPastry, "pastry."}} {
		a := layers[l.layer]
		out[l.prefix+"calls_per_op"] = metric{per(float64(a.n), ops), "count"}
		out[l.prefix+"server_self_us_per_call"] = metric{per(float64(a.self)/1e3, float64(a.n)), "us"}
	}
	out["simnet.self_us_per_call"] = metric{per(float64(sn.self)/1e3, float64(sn.n)), "us"}
	out["wire.bytes_per_op"] = metric{per(float64(sn.bytes), ops), "B"}
	out["localfs.calls_per_op"] = metric{per(float64(lf.n), ops), "count"}
	out["localfs.self_us_per_op"] = metric{per(float64(lf.self)/1e3, ops), "us"}
	f := tp.fixed
	out["localfs.bytes_written_per_user_byte"] = metric{per(float64(lf.bytes), float64(f.writeBytes)), "ratio"}
	out["localfs.stored_bytes_per_user_byte"] = metric{per(float64(f.storedB), float64(f.liveB)), "ratio"}
	out["pastry.hops_per_route"] = metric{per(float64(f.ctr[ctrRouteHops]), float64(f.ctr[ctrRouteCount])), "count"}
	out["core.readahead_hit_ratio"] = metric{per(float64(f.ctr[ctrReadaheadHits]), float64(names["Read"])), "ratio"}
	out["core.writeback_coalesce_ratio"] = metric{per(float64(f.ctr[ctrWritebackCoalesced]), float64(names["Write"])), "ratio"}
	// Self times telescope: over a pass they add up to the time inside client
	// calls exactly, so every microsecond of an op is attributed to one layer.
	fmt.Printf("# accounting: sum of span self times %d us = time inside traced client calls %d us\n", selfSum/1e3, clientDur/1e3)
}

// classMetrics reports, per op class, the median call latency (median over
// rounds of the round's median) and the simulated time per call, from the
// untraced reference pass.
func classMetrics(out map[string]metric, ref *pass) {
	for c := 0; c < int(numClasses); c++ {
		var p50 []float64
		var calls int
		var cost float64
		for _, r := range ref.rounds {
			if r.clsCalls[c] > 0 {
				p50 = append(p50, float64(r.clsP50[c])/1e3)
			}
			calls += r.clsCalls[c]
			cost += float64(r.clsCost[c])
		}
		sim := 0.0
		if calls > 0 {
			sim = cost / 1e6 / float64(calls)
		}
		out["core.op_"+classNames[c]+"_p50_us"] = metric{median(p50), "us"}
		out["core.op_"+classNames[c]+"_sim_ms"] = metric{sim, "ms"}
	}
}
