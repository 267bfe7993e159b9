package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"ddoshield/internal/dataset"
	"ddoshield/internal/devices"
	"ddoshield/internal/experiments"
	"ddoshield/internal/ids"
	"ddoshield/internal/mitigation"
	"ddoshield/internal/ml"
	"ddoshield/internal/netsim"
	"ddoshield/internal/sim"
	"ddoshield/internal/testbed"
)

// size holds every input-size knob of the workloads, so the tests run each
// workload at toy size through the same code the benchmark runs.
type size struct {
	Label    string               `json:"label"`
	Pipeline experiments.Scenario `json:"pipeline"`

	FleetDevices   int           `json:"fleet_devices"`
	FleetGroups    int           `json:"fleet_groups"`
	FleetShards    int           `json:"fleet_core_shards"`
	FleetDomains   int           `json:"fleet_domains"`
	FleetScannable int           `json:"fleet_scannable"`
	FleetSim       time.Duration `json:"fleet_sim_ns"`

	FloodDevices int           `json:"flood_devices"`
	FloodWarmup  time.Duration `json:"flood_warmup_ns"`
	FloodWave    time.Duration `json:"flood_wave_ns"`
	FloodTail    time.Duration `json:"flood_tail_ns"`
	FloodPPS     int           `json:"flood_pps"`

	// KernelOps is the loop count of the cheapest layer kernels; the others
	// scale from it.
	KernelOps int `json:"kernel_ops"`
}

// fullSize is the benchmark's input size.
func fullSize() size {
	return size{
		Label:    "full",
		Pipeline: experiments.Quick(),

		FleetDevices:   100_000,
		FleetGroups:    64,
		FleetShards:    4,
		FleetDomains:   64/4 + 1,
		FleetScannable: 2048,
		FleetSim:       5 * time.Second,

		FloodDevices: 40,
		FloodWarmup:  25 * time.Second,
		FloodWave:    60 * time.Second,
		FloodTail:    5 * time.Second,
		FloodPPS:     2000,

		KernelOps: 400_000,
	}
}

// toySize runs every code path in a few seconds, for the tests.
func toySize() size {
	sc := experiments.Quick()
	sc.Devices = 4
	sc.TrainDuration = 20 * time.Second
	sc.DetectDuration = 10 * time.Second
	sc.BenignWarmup = 5 * time.Second
	sc.AttackDuration = 3 * time.Second
	sc.AttackGap = time.Second
	sc.DetectWarmup = 2 * time.Second
	sc.InfectionLead = 15 * time.Second
	sc.MaxTrainSamples = 1500
	return size{
		Label:    "toy",
		Pipeline: sc,

		FleetDevices:   2000,
		FleetGroups:    8,
		FleetShards:    2,
		FleetDomains:   3,
		FleetScannable: 256,
		FleetSim:       time.Second,

		FloodDevices: 12,
		FloodWarmup:  15 * time.Second,
		FloodWave:    6 * time.Second,
		FloodTail:    2 * time.Second,
		FloodPPS:     200,

		KernelOps: 2000,
	}
}

// campaign is one built testbed plus what a workload attached to it.
type campaign struct {
	tb  *testbed.Testbed
	sim time.Duration
	// arm schedules the attack waves; it runs after Start.
	arm  func(tb *testbed.Testbed)
	unit *ids.Unit
	fw   *mitigation.Firewall
	dc   *testbed.DatasetCollector
}

// workload is one named benchmark input.
type workload struct {
	name string
	// unit names one unit of work, the denominator of wall_s_per_unit.
	unit    string
	devices int
	// newCampaign runs testbed.New and attaches the workload's observers;
	// the caller starts the testbed.
	newCampaign func(seed int64) (*campaign, error)
	// iterate runs one unit of work.
	iterate func(seed int64, tr *tracer) (*iteration, error)
}

// iteration is one unit of work's measurements and outputs.
type iteration struct {
	Seed int64 `json:"seed"`
	// SetupS and HeapPerDevice measure the iteration's testbed set-up.
	SetupS        float64 `json:"setup_s"`
	HeapPerDevice float64 `json:"heap_bytes_per_device"`
	// WallS is the wall time of the unit of work, IterS of the whole
	// iteration including its set-up.
	WallS float64 `json:"wall_s"`
	IterS float64 `json:"iter_s"`
	Units float64 `json:"units"`
	// Digest covers the outputs that must repeat exactly for a seed;
	// ModelDigest the paper pipeline's model-dependent outputs, which do
	// not yet (see runPipeline).
	Digest      string         `json:"digest"`
	ModelDigest string         `json:"model_digest,omitempty"`
	Outputs     map[string]any `json:"outputs"`

	build *buildStats
	run   *runStats
	pipe  *pipelineStats
}

func workloads(sz size) map[string]*workload {
	ws := []*workload{pipelineWorkload(sz), fleetWorkload(sz), floodWorkload(sz)}
	out := make(map[string]*workload, len(ws))
	for _, w := range ws {
		out[w.name] = w
	}
	return out
}

// pipelineWorkload is the paper's own workflow, run the way users run it:
// experiments.Quick() through GenerateDataset, TrainModels and
// RunRealTime. ML does most of its work.
func pipelineWorkload(sz size) *workload {
	w := &workload{
		name:    "paper-pipeline",
		unit:    "one Quick pipeline (dataset, train, detect)",
		devices: sz.Pipeline.Devices,
	}
	w.newCampaign = func(seed int64) (*campaign, error) {
		sc := sz.Pipeline
		sc.Seed = seed
		return datasetCampaign(sc)
	}
	w.iterate = func(seed int64, tr *tracer) (*iteration, error) {
		sc := sz.Pipeline
		sc.Seed = seed
		it, err := runPipeline(sc, tr)
		if err != nil {
			return nil, err
		}
		// The pipeline hides its testbeds, so set-up is timed, and the
		// campaign counters read, on GenerateDataset's campaign rebuilt
		// through the testbed API. It runs after the pipeline's stages and
		// outside their wall time.
		d, err := tr.span("workload/dataset-campaign", func() error {
			c, b, r, err := buildAndRun(w, seed, tr)
			if err != nil {
				return err
			}
			if got := c.dc.Dataset().Len(); got != it.pipe.samples {
				return fmt.Errorf("seed %d: dataset campaign collected %d samples, GenerateDataset %d: the benchmark's copy of its set-up is stale", seed, got, it.pipe.samples)
			}
			it.build, it.run = b, r
			return nil
		})
		if err != nil {
			return nil, err
		}
		it.SetupS, it.HeapPerDevice = it.build.newS+it.build.startS, it.build.heapPerDevice
		it.IterS += d.Seconds()
		return it, nil
	}
	return w
}

// datasetCampaign rebuilds GenerateDataset's testbed through the testbed
// API. Every pipeline iteration checks that it yields GenerateDataset's
// sample count.
func datasetCampaign(sc experiments.Scenario) (*campaign, error) {
	tb, err := testbed.New(testbed.Config{
		Seed:            sc.Seed,
		NumDevices:      sc.Devices,
		MeanThink:       3 * time.Second,
		ScanInterval:    150 * time.Millisecond,
		TraceSampleRate: sc.TraceSampleRate,
		Domains:         sc.Domains,
	})
	if err != nil {
		return nil, err
	}
	dc := tb.NewDatasetCollector(sc.Window)
	tb.AddTap(dc.Tap())
	arm := func(tb *testbed.Testbed) {
		wave := tb.DefaultAttackWave(sc.AttackDuration, sc.TrainPPS)
		period := time.Duration(len(wave))*(sc.AttackDuration+sc.AttackGap) + sc.AttackGap
		for start := sc.BenignWarmup; start < sc.TrainDuration; start += period {
			tb.ScheduleAttackWave(start, sc.AttackGap, wave)
		}
	}
	return &campaign{tb: tb, sim: sc.TrainDuration, arm: arm, dc: dc}, nil
}

// fleetWorkload is RunScaleBench's 100k-device topology and campaign,
// built directly: the wide, mostly idle, memory-bound regime with no ML,
// IDS or mitigation.
func fleetWorkload(sz size) *workload {
	w := &workload{
		name:    "fleet-100k",
		unit:    fmt.Sprintf("one %s campaign of the whole fleet", sz.FleetSim),
		devices: sz.FleetDevices,
	}
	var profiles []devices.Profile
	for _, p := range devices.ScaleFleet {
		p.Video, p.FTP = false, false // edge servers speak HTTP only
		profiles = append(profiles, p)
	}
	w.newCampaign = func(seed int64) (*campaign, error) {
		tb, err := testbed.New(testbed.Config{
			Seed:             seed,
			NumDevices:       sz.FleetDevices,
			DeviceGroups:     sz.FleetGroups,
			CoreShards:       sz.FleetShards,
			EdgeServers:      true,
			Profiles:         profiles,
			MeanThink:        60 * time.Second,
			ScanInterval:     time.Millisecond,
			ScannableDevices: sz.FleetScannable,
			TrunkLink:        netsim.LinkConfig{Delay: sim.FromDuration(5 * time.Millisecond)},
			Domains:          sz.FleetDomains,
			PDESWorkers:      min(sz.FleetDomains, runtime.NumCPU()),
			PrimeARP:         true,
		})
		if err != nil {
			return nil, err
		}
		d := sz.FleetSim
		arm := func(tb *testbed.Testbed) {
			tb.ScheduleAttackWave(d/2, d/8, tb.DefaultAttackWave(d/8, 400))
		}
		return &campaign{tb: tb, sim: d, arm: arm}, nil
	}
	w.iterate = func(seed int64, tr *tracer) (*iteration, error) {
		it, _, err := runCampaignIteration(w, seed, tr)
		if err != nil {
			return nil, err
		}
		if it.run.events == 0 {
			return nil, fmt.Errorf("fleet campaign executed no events")
		}
		it.Units = 1
		it.Outputs["dev_sim_s_per_s"] = float64(w.devices) * sz.FleetSim.Seconds() / it.WallS
		return it, nil
	}
	return w
}

// floodWorkload is a small fleet under a mitigated flood: a few very hot
// links, a deep queue at the victim, per-packet IDS intake, checksums and
// the verdict cache.
func floodWorkload(sz size) *workload {
	w := &workload{
		name:    "flood-mitigated",
		unit:    "1e6 frames evaluated at the victim's ingress",
		devices: sz.FloodDevices,
	}
	w.newCampaign = func(seed int64) (*campaign, error) {
		tb, err := testbed.New(testbed.Config{
			Seed:         seed,
			NumDevices:   sz.FloodDevices,
			DeviceGroups: 4,
			Domains:      2,
			PDESWorkers:  min(2, runtime.NumCPU()),
		})
		if err != nil {
			return nil, err
		}
		// No Registry: ids_window_cpu_us is wall-clock, and the digest
		// covers the testbed's deterministic outputs only.
		unit := ids.New(ids.Config{Model: ids.NewThresholdRule(), Window: time.Second, Labeler: tb.Labeler()})
		tb.AttachIDS(unit)
		fw := tb.AttachMitigation(unit, testbed.MitigationConfig{
			CacheSize: 1024,
			Responder: mitigation.ResponderConfig{AggregateThreshold: 4},
		})
		arm := func(tb *testbed.Testbed) {
			tb.ScheduleAttackWave(sz.FloodWarmup, 0, tb.DefaultAttackWave(sz.FloodWave/3, sz.FloodPPS))
		}
		return &campaign{tb: tb, sim: sz.FloodWarmup + sz.FloodWave + sz.FloodTail, arm: arm, unit: unit, fw: fw}, nil
	}
	w.iterate = func(seed int64, tr *tracer) (*iteration, error) {
		it, c, err := runCampaignIteration(w, seed, tr)
		if err != nil {
			return nil, err
		}
		c.unit.Flush()
		evaluated, dropped := c.fw.Stats()
		ttm, ok := c.tb.TimeToMitigate(c.fw)
		if !ok || evaluated == 0 || dropped > evaluated {
			return nil, fmt.Errorf("flood not mitigated: evaluated=%d dropped=%d time-to-mitigate found=%v",
				evaluated, dropped, ok)
		}
		it.Units = float64(evaluated) / 1e6
		residual := float64(c.fw.AttackPassed()) / sz.FloodWave.Seconds()
		it.Outputs["frames_evaluated"] = evaluated
		it.Outputs["frames_dropped"] = dropped
		it.Outputs["flood_frames_per_s"] = float64(evaluated) / it.WallS
		it.Outputs["time_to_mitigate_s"] = ttm.Seconds()
		it.Outputs["residual_attack_pps"] = residual
		it.Outputs["ids_cpu_ns_per_pkt"] = float64(c.unit.CPUTime().Nanoseconds()) / float64(max(c.unit.PacketsSeen(), 1))
		cs := c.fw.CacheStats()
		it.Digest = digestOf(it.Digest, evaluated, dropped, c.fw.CollateralDrops(), c.fw.AttackDrops(),
			c.fw.AttackPassed(), cs.Hits, cs.Misses, cs.Evictions, ttm)
		return it, nil
	}
	return w
}

// buildStats is one timed set-up: testbed.New (with attachments) and Start.
type buildStats struct {
	newS, startS  float64
	heapPerDevice float64
}

// build times one set-up. Construction is one allocation burst, so the
// collector is off for it, as testbed.New itself does for large fleets.
func build(w *workload, seed int64, tr *tracer) (*campaign, buildStats, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var b buildStats
	var c *campaign
	d, err := tr.span("testbed.New", func() (err error) {
		c, err = w.newCampaign(seed)
		return err
	})
	if err != nil {
		return nil, b, err
	}
	b.newS = d.Seconds()
	d, _ = tr.span("testbed.Start", func() error {
		c.tb.Start()
		return nil
	})
	b.startS = d.Seconds()
	return c, b, nil
}

// liveHeap forces two collections (the second frees what the first's
// finalizers and pools released) and reports the live heap.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runStats are the public counters read around one testbed.Run.
type runStats struct {
	wallS           float64
	events, epochs  uint64
	maxDomainShare  float64
	framesTx, drops uint64
	infected        int
	floodFramesSent uint64
	gcCycles        uint32
	allocBytes      uint64
	evaluated       uint64
	dropped         uint64
	cacheHits       uint64
	cacheLookups    uint64
	cacheEvictions  uint64
	summary         string
}

// runCampaign arms the attacks and times testbed.Run, reading the layer
// counters the program exports before and after.
func runCampaign(c *campaign, tr *tracer) (*runStats, error) {
	c.arm(c.tb)
	r := &runStats{}
	before, epochs0 := domainEvents(c.tb)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d, err := tr.span("testbed.Run", func() error { return c.tb.Run(c.sim) })
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	r.wallS = d.Seconds()
	after, epochs1 := domainEvents(c.tb)
	var maxEv uint64
	for i := range after {
		ev := after[i] - before[i]
		r.events += ev
		maxEv = max(maxEv, ev)
	}
	if r.events > 0 {
		r.maxDomainShare = float64(maxEv) / float64(r.events)
	}
	r.epochs = epochs1 - epochs0
	r.gcCycles = m1.NumGC - m0.NumGC
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	for _, l := range c.tb.Network().Links() {
		ls := l.Counters()
		r.framesTx += ls.TxFrames
		r.drops += ls.Drops()
	}
	r.infected = c.tb.InfectedCount()
	for _, h := range c.tb.Devices() {
		if b := h.Device.Bot(); b != nil {
			_, sent := b.Stats()
			r.floodFramesSent += sent
		}
	}
	if c.fw != nil {
		r.evaluated, r.dropped = c.fw.Stats()
		cs := c.fw.CacheStats()
		r.cacheHits, r.cacheLookups, r.cacheEvictions = cs.Hits, cs.Hits+cs.Misses, cs.Evictions
	}
	r.summary = c.tb.Summary()
	return r, nil
}

// domainEvents reports events executed so far per PDES domain (one entry
// on the serial path) and the engine's epoch count.
func domainEvents(tb *testbed.Testbed) ([]uint64, uint64) {
	e := tb.Engine()
	if e == nil {
		return []uint64{tb.Scheduler().Fired()}, 0
	}
	out := make([]uint64, e.NumDomains())
	for i := range out {
		out[i] = e.Domain(i).Stats().Events
	}
	return out, e.Epochs()
}

// buildAndRun builds, starts and runs one campaign, and measures the live
// heap its set-up adds per device.
func buildAndRun(w *workload, seed int64, tr *tracer) (*campaign, *buildStats, *runStats, error) {
	before := liveHeap()
	c, b, err := build(w, seed, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	b.heapPerDevice = float64(int64(liveHeap())-int64(before)) / float64(w.devices)
	r, err := runCampaign(c, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	return c, &b, r, nil
}

// runCampaignIteration builds, starts and runs one campaign. Its digest
// covers the deterministic Summary and the executed event count.
func runCampaignIteration(w *workload, seed int64, tr *tracer) (*iteration, *campaign, error) {
	start := time.Now()
	it := &iteration{Seed: seed, Outputs: map[string]any{}}
	var (
		b *buildStats
		r *runStats
		c *campaign
	)
	_, err := tr.span("workload/"+w.name, func() (err error) {
		c, b, r, err = buildAndRun(w, seed, tr)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	it.build, it.run = b, r
	it.SetupS = b.newS + b.startS
	it.HeapPerDevice = b.heapPerDevice
	it.WallS = r.wallS
	it.IterS = time.Since(start).Seconds()
	it.Digest = digestOf(r.summary, r.events)
	it.Outputs["events"] = r.events
	it.Outputs["infected"] = r.infected
	return it, c, nil
}

// pipelineStats are the paper pipeline's stage times and the handles the
// traced run's layer probes need.
type pipelineStats struct {
	datasetS, trainS, detectS float64
	samples                   int
	ds                        *dataset.Dataset
	trained                   *experiments.TrainingResult
	// predict holds the timing wrappers given to RunRealTimeModels, in
	// Table order (traced runs only).
	predict []*timedClassifier
}

// runPipeline runs GenerateDataset, TrainModels and RunRealTimeModels. A
// traced run hands RunRealTimeModels timing wrappers around the trained
// classifiers and records their calls as aggregate spans.
func runPipeline(sc experiments.Scenario, tr *tracer) (*iteration, error) {
	start := time.Now()
	p := &pipelineStats{}
	var rt *experiments.RealTimeResult
	_, err := tr.span("workload/paper-pipeline", func() error {
		d, err := tr.span("experiments.GenerateDataset", func() (err error) {
			p.ds, err = sc.GenerateDataset()
			return err
		})
		if err != nil {
			return fmt.Errorf("generate: %w", err)
		}
		p.datasetS = d.Seconds()
		p.samples = p.ds.Len()
		d, err = tr.spanN("experiments.TrainModels", 3, func() (err error) {
			p.trained, err = sc.TrainModels(p.ds)
			return err
		})
		if err != nil {
			return fmt.Errorf("train: %w", err)
		}
		p.trainS = d.Seconds()
		models := p.trained.Models()
		if tr != nil {
			for i := range models {
				tc := &timedClassifier{Classifier: models[i].Model}
				models[i].Model = tc
				p.predict = append(p.predict, tc)
			}
		}
		d, err = tr.span("experiments.RunRealTimeModels", func() (err error) {
			rt, err = sc.RunRealTimeModels(models)
			for _, tc := range p.predict {
				tr.aggregate("ids.Predict/"+tc.Name(), tc.calls.Load(), time.Duration(tc.busy.Load()))
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("detect: %w", err)
		}
		p.detectS = d.Seconds()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if p.samples == 0 || rt.Packets == 0 || len(rt.Table1) != 3 || len(rt.Table2) != 3 || len(rt.Detection) != 3 {
		return nil, fmt.Errorf("pipeline produced an incomplete result: %d samples, %d packets, %d/%d/%d table rows",
			p.samples, rt.Packets, len(rt.Table1), len(rt.Table2), len(rt.Detection))
	}
	it := &iteration{
		Seed:    sc.Seed,
		WallS:   p.datasetS + p.trainS + p.detectS,
		IterS:   time.Since(start).Seconds(),
		Units:   1,
		Outputs: map[string]any{},
		pipe:    p,
	}
	// The models' results go into ModelDigest, which a run reports but
	// does not fail on: the window entropy features sum over a map in
	// iteration order, so their last bits change between runs of one seed,
	// and with them the trained parameters and now and then a prediction.
	// Table II model size is left out of both digests: gob trims each
	// float's trailing zero bytes, so those last bits change it in almost
	// every run. Digest keeps what the simulation decides.
	parts := []any{p.samples, p.ds.Summarize().String(), rt.Packets}
	var model []any
	for i, row := range rt.Table1 {
		t2, det := rt.Table2[i], rt.Detection[i]
		parts = append(parts, row.Model, len(row.Series))
		model = append(model, row.Model, row.AvgAccuracy, row.MinAccuracy,
			t2.MemoryKb, det.Latency, det.Detected)
		it.Outputs["table1_acc_pct."+row.Model] = row.AvgAccuracy * 100
		it.Outputs["table2_cpu_pct."+row.Model] = t2.CPUPercent
		it.Outputs["table2_model_size_kb."+row.Model] = t2.ModelSizeKb
		it.Outputs["detection_latency_s."+row.Model] = det.Latency.Seconds()
	}
	it.Digest, it.ModelDigest = digestOf(parts...), digestOf(model...)
	it.Outputs["samples"] = p.samples
	it.Outputs["packets_classified"] = rt.Packets
	it.Outputs["dataset_s"] = p.datasetS
	it.Outputs["train_s"] = p.trainS
	it.Outputs["detect_s"] = p.detectS
	return it, nil
}

// timedClassifier times every Predict call of the classifier it wraps and
// forwards Name and MemoryBytes, so the detection run's results (Table II
// memory included) are the same as with the bare model.
type timedClassifier struct {
	ml.Classifier
	calls atomic.Int64
	busy  atomic.Int64
}

func (c *timedClassifier) Predict(x []float64) int {
	start := time.Now()
	y := c.Classifier.Predict(x)
	c.busy.Add(int64(time.Since(start)))
	c.calls.Add(1)
	return y
}

func (c *timedClassifier) MemoryBytes() int64 {
	if m, ok := c.Classifier.(interface{ MemoryBytes() int64 }); ok {
		return m.MemoryBytes()
	}
	return 0
}

// digestOf hashes the printed form of parts.
func digestOf(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%v\x00", p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
