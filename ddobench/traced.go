package main

import "fmt"

// traceRun is the --trace 1 run. It runs the workload's first iteration
// untraced, traced and untraced again (their outputs must agree), then the
// layer probes: the campaign counters, the paper pipeline's stages and model
// fits, and the layer kernels. Every per-layer metric is reported on every
// workload so each layer's figure can be read next to each workload's
// end-to-end metrics; README.md says which workload each should move.
func traceRun(cfg config, ws map[string]*workload, w *workload, st *runState) {
	seed := cfg.seed
	untraced, err := w.iterate(seed, nil)
	if !st.op(w.name, untraced, err) {
		return
	}
	tr := newTracer()
	traced, err := w.iterate(seed, tr)
	if err == nil && traced.Digest != untraced.Digest {
		err = fmt.Errorf("seed %d: the traced run's outputs differ from the untraced run's", seed)
	}
	if !st.op(w.name, traced, err) {
		return
	}
	// A second untraced iteration after the traced one, so the overhead is
	// not the first iteration's warm-up.
	after, err := w.iterate(seed, nil)
	if !st.op(w.name, after, err) {
		return
	}
	untraced.pipe, after.pipe = nil, nil
	st.rec.Iterations = append(st.rec.Iterations, untraced, traced, after)

	// The pipeline's campaign counters come from its dataset campaign.
	camp, bld, pipe := traced.run, traced.build, traced.pipe
	if pipe == nil {
		probe, err := ws["paper-pipeline"].iterate(seed, tr)
		if !st.op("paper-pipeline", probe, err) {
			return
		}
		pipe = probe.pipe
	}
	sc := cfg.size.Pipeline
	sc.Seed = seed
	fits, err := fitModels(sc, pipe.ds, pipe.trained, tr)
	if !st.op(w.name, nil, err) {
		return
	}
	k, err := runKernels(cfg.size.KernelOps, seed, tr)
	if !st.op(w.name, nil, err) {
		return
	}
	st.rec.Spans = tr.finish()
	if !st.op(w.name, nil, checkSpans(st.rec.Spans)) {
		return
	}
	writeSpanTable(st.stderr, st.rec.Spans)

	m := st.rec.Result.Metrics
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	// One traced iteration against the mean of the untraced ones around
	// it: host noise can move this figure by more than the tracer costs.
	base := (untraced.IterS + after.IterS) / 2
	put("trace.overhead_pct", (traced.IterS-base)/base*100, "%")

	put("testbed.new_s", bld.newS, "s")
	put("testbed.start_s", bld.startS, "s")
	put("testbed.run_s.campaign", camp.wallS, "s")
	put("testbed.run_s.dataset", pipe.datasetS, "s")
	put("testbed.run_s.train", pipe.trainS, "s")
	put("testbed.run_s.detect", pipe.detectS, "s")
	put("dataset.samples", float64(pipe.samples), "count")

	put("sim.events", float64(camp.events), "count")
	put("sim.ns_per_event", camp.wallS*1e9/float64(max(camp.events, 1)), "ns")
	put("sim.epochs", float64(camp.epochs), "count")
	put("sim.domain_event_max_share", camp.maxDomainShare, "ratio")
	put("sim.step_ns", k.step, "ns")
	put("gc.cycles", float64(camp.gcCycles), "count")
	put("gc.alloc_bytes_per_event", float64(camp.allocBytes)/float64(max(camp.events, 1)), "B")

	put("netsim.hop_ns", k.hop, "ns")
	put("netsim.frames_delivered", float64(camp.framesTx-camp.drops), "count")
	put("netsim.drop_ratio", ratio(camp.drops, camp.framesTx), "ratio")
	put("packet.build_decode_ns", k.packet, "ns")
	put("netstack.tcp_ns_per_kib", k.tcpPerKiB, "ns")
	put("netstack.retransmits", float64(k.retransmits), "count")
	put("botnet.infected", float64(camp.infected), "count")
	put("botnet.flood_frames_sent", float64(camp.floodFramesSent), "count")

	put("features.window_ns", k.window, "ns")
	var calls int64
	for _, tc := range pipe.predict {
		n := tc.calls.Load()
		calls += n
		put("ids.predict_ns."+tc.Name(), float64(tc.busy.Load())/float64(max(n, 1)), "ns")
	}
	put("ids.predict_calls", float64(calls), "count")
	put("ids.cpu_ns_per_pkt", k.idsPerPkt, "ns")
	for name, s := range fits {
		put("ml.fit_s."+name, s, "s")
	}

	put("mitigation.admit_ns", k.admit, "ns")
	put("mitigation.drop_ratio", ratio(camp.dropped, camp.evaluated), "ratio")
	put("mitigation.cache_hit_ratio", ratio(camp.cacheHits, camp.cacheLookups), "ratio")
	put("mitigation.cache_evictions", float64(camp.cacheEvictions), "count")
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// kernelResults are the layer kernels' per-operation figures.
type kernelResults struct {
	step, packet, window float64
	hop, admit           float64
	tcpPerKiB            float64
	retransmits          uint64
	idsPerPkt            float64
}

// runKernels runs every layer kernel once under one span; ops scales the
// loop counts.
func runKernels(ops int, seed int64, tr *tracer) (kernelResults, error) {
	var k kernelResults
	_, err := tr.span("layer-kernels", func() (err error) {
		if k.step, err = kernelSchedulerStep(tr, 5*ops); err != nil {
			return err
		}
		if k.packet, err = kernelPacket(tr, ops); err != nil {
			return err
		}
		if k.hop, err = kernelHop(tr, ops, hopBench); err != nil {
			return err
		}
		if k.admit, err = kernelAdmit(tr, 101, max(ops/80, 1)); err != nil {
			return err
		}
		if k.window, err = kernelWindow(tr, max(ops/1000, 1)); err != nil {
			return err
		}
		if k.tcpPerKiB, k.retransmits, err = kernelTCP(tr, seed, max(ops/100_000, 1)); err != nil {
			return err
		}
		k.idsPerPkt, err = kernelIDS(tr, max(ops/2, 1000))
		return err
	})
	return k, err
}
