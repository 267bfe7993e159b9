package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	"ddoshield/internal/dataset"
	"ddoshield/internal/experiments"
	"ddoshield/internal/features"
	"ddoshield/internal/ids"
	"ddoshield/internal/mitigation"
	"ddoshield/internal/ml"
	"ddoshield/internal/ml/cnn"
	"ddoshield/internal/ml/forest"
	"ddoshield/internal/ml/kmeans"
	"ddoshield/internal/ml/modelio"
	"ddoshield/internal/netsim"
	"ddoshield/internal/netstack"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

// The layer kernels call the same public functions as cmd/benchperf's
// Scheduler, PacketRoundtrip, HopPath and ExtractorWindow benchmarks, so
// their figures read against BENCH_scheduler.json. Each returns
// nanoseconds per operation; every kernel is one span whose count is its
// loop count.

var noop sim.Handler = func() {}

// kernelSchedulerStep is one sim.Scheduler After+Step.
func kernelSchedulerStep(tr *tracer, n int) (float64, error) {
	s := sim.NewScheduler()
	d, err := tr.spanN("sim.Scheduler.After+Step", int64(n), func() error {
		for i := 0; i < n; i++ {
			s.After(time.Microsecond, noop)
			s.Step()
		}
		return nil
	})
	if s.Fired() != uint64(n) {
		return 0, fmt.Errorf("scheduler fired %d of %d events", s.Fired(), n)
	}
	return perOp(d, n), err
}

// kernelPacket is one packet.AppendTCP + packet.DecodeInto.
func kernelPacket(tr *tracer, n int) (float64, error) {
	src, dst := packet.MACFromUint64(1), packet.MACFromUint64(2)
	ip := packet.IPv4{Src: packet.AddrFrom4(10, 0, 0, 1), Dst: packet.AddrFrom4(10, 0, 0, 2), TTL: 64}
	tcp := packet.TCP{SrcPort: 40000, DstPort: 80, Seq: 1234, Flags: packet.FlagSYN, Window: 65535}
	payload := []byte("GET / HTTP/1.1\r\n\r\n")
	buf := make([]byte, 0, 128)
	p := packet.Acquire()
	defer p.Release()
	d, err := tr.spanN("packet.AppendTCP+DecodeInto", int64(n), func() error {
		for i := 0; i < n; i++ {
			buf = packet.AppendTCP(buf[:0], src, dst, ip, tcp, payload)
			if err := packet.DecodeInto(p, 0, buf); err != nil {
				return err
			}
		}
		return nil
	})
	return perOp(d, n), err
}

// hopKind selects kernelHop's frame and ingress path.
type hopKind int

const (
	// hopBench sends cmd/benchperf HopPath's frame: an Ethernet header and
	// 100 zero bytes.
	hopBench hopKind = iota
	// hopTCP sends a TCP segment, the frame the firewall parses.
	hopTCP
	// hopFirewall sends the TCP segment through a mitigation Firewall on
	// the receiving NIC's ingress.
	hopFirewall
)

// kernelHop is one frame over NIC -> link -> switch -> link -> NIC
// (netsim NIC.Send + Scheduler.Drain).
func kernelHop(tr *tracer, n int, kind hopKind) (float64, error) {
	net := netsim.New(sim.NewScheduler())
	sw := net.NewSwitch("sw0")
	cfg := netsim.LinkConfig{Delay: sim.Microsecond}
	na := net.NewNode("a").AddNIC()
	nb := net.NewNode("b").AddNIC()
	net.Connect(na, sw.NewPort(), cfg)
	net.Connect(nb, sw.NewPort(), cfg)
	delivered := 0
	nb.SetHandler(func([]byte) { delivered++ })
	na.SetHandler(func([]byte) {})
	sched := na.Node().Scheduler()
	ethAB := packet.Ethernet{Dst: nb.MAC(), Src: na.MAC(), Type: packet.EtherTypeIPv4}
	ab := append(ethAB.Marshal(nil), make([]byte, 100)...)
	name := "netsim.NIC.Send+Drain"
	var fw *mitigation.Firewall
	if kind != hopBench {
		ip := packet.IPv4{Src: packet.AddrFrom4(10, 0, 0, 1), Dst: packet.AddrFrom4(10, 0, 0, 2), TTL: 64}
		tcp := packet.TCP{SrcPort: 40000, DstPort: 80, Flags: packet.FlagACK, Window: 65535}
		ab = packet.AppendTCP(nil, na.MAC(), nb.MAC(), ip, tcp, make([]byte, 60))
		name += "/tcp"
	}
	if kind == hopFirewall {
		// No aging sweep: a recurring timer would keep Drain from returning.
		fw = mitigation.NewFirewallConfig(sched, nb, mitigation.FirewallConfig{SweepInterval: -1})
		name += "+firewall"
	}
	ethBA := packet.Ethernet{Dst: na.MAC(), Src: nb.MAC(), Type: packet.EtherTypeIPv4}
	// One frame each way teaches the switch both MACs, so the loop
	// forwards instead of flooding.
	na.Send(ab)
	nb.Send(ethBA.Marshal(nil))
	sched.Drain()
	delivered = 0
	d, err := tr.spanN(name, int64(n), func() error {
		for i := 0; i < n; i++ {
			na.Send(ab)
			sched.Drain()
		}
		return nil
	})
	if delivered != n {
		return 0, fmt.Errorf("%s delivered %d of %d frames", name, delivered, n)
	}
	if fw != nil {
		if ev, dr := fw.Stats(); ev != uint64(n+1) || dr != 0 {
			return 0, fmt.Errorf("firewall evaluated %d and dropped %d of %d frames", ev, dr, n+1)
		}
	}
	return perOp(d, n), err
}

// kernelAdmit is the firewall's admit cost per frame: the TCP hop with a
// Firewall on the receiving NIC minus the hop without. The difference is
// about a tenth of the hop, less than the host's drift over a fraction of
// a second, so the two run in many short alternating rounds of n frames
// (order swapped every round) and the median paired difference is
// reported. The rounds are one span; they are not traced one by one.
func kernelAdmit(tr *tracer, rounds, n int) (float64, error) {
	diffs := make([]float64, 0, rounds)
	_, err := tr.spanN("mitigation.Firewall admit (paired hops)", int64(2*rounds*n), func() error {
		for r := 0; r < rounds; r++ {
			order := []hopKind{hopTCP, hopFirewall}
			if r%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
			var ns [2]float64
			for _, kind := range order {
				v, err := kernelHop(nil, n, kind)
				if err != nil {
					return err
				}
				ns[kind-hopTCP] = v
			}
			diffs = append(diffs, ns[1]-ns[0])
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return median(diffs), nil
}

// kernelWindow is one 1000-packet features.Extractor window (Add x1000 +
// Flush), after one warm-up window.
func kernelWindow(tr *tracer, n int) (float64, error) {
	windows := 0
	e := features.NewExtractor(time.Second, func(w *features.Window) { windows++ })
	window := func(i int) {
		base := sim.Time(i) * sim.Second
		for j := 0; j < 1000; j++ {
			e.Add(features.Basic{
				Time:    base + sim.Time(j)*sim.Millisecond,
				Src:     packet.AddrFrom4(10, 0, byte(j%4), byte(j%200)),
				Dst:     packet.AddrFrom4(10, 0, 0, 1),
				Proto:   packet.ProtoTCP,
				SrcPort: uint16(30000 + j%512),
				DstPort: 80,
				Length:  60,
				Flags:   packet.FlagSYN,
				Seq:     uint32(j) * 1664525,
			})
		}
		e.Flush()
	}
	window(0)
	d, err := tr.spanN("features.Extractor.Add*1000+Flush", int64(n), func() error {
		for i := 0; i < n; i++ {
			window(i + 1)
		}
		return nil
	})
	if windows != n+1 {
		return 0, fmt.Errorf("extractor emitted %d of %d windows", windows, n+1)
	}
	return perOp(d, n), err
}

// kernelTCP transfers transfers x 1 MiB over one netstack TCP connection
// across a switch with 1% random loss per link direction (keyed from
// seed), and reports wall ns per KiB and the retransmit count.
func kernelTCP(tr *tracer, seed int64, transfers int) (nsPerKiB float64, retransmits uint64, err error) {
	const total = 1 << 20
	s := sim.NewScheduler()
	net := netsim.New(s)
	net.SetSeed(seed)
	sw := net.NewSwitch("sw0")
	subnet := packet.MustParsePrefix("10.0.0.0/24")
	var hosts [2]*netstack.Host
	for i := range hosts {
		nic := net.NewNode(fmt.Sprintf("h%d", i)).AddNIC()
		net.Connect(nic, sw.NewPort(), netsim.LinkConfig{LossProb: 0.01})
		hosts[i] = netstack.NewHost(nic, netstack.HostConfig{Addr: subnet.Host(uint32(i + 1)), Subnet: subnet, Seed: seed + int64(i)})
	}
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i)
	}
	received := 0
	if _, err := hosts[1].ListenTCP(80, 0, func(c *netstack.Conn) {
		c.OnData = func(b []byte) { received += len(b) }
	}); err != nil {
		return 0, 0, err
	}
	d, err := tr.spanN("netstack.DialTCP+Send 1MiB", int64(transfers*total/1024), func() error {
		for i := 0; i < transfers; i++ {
			c := hosts[0].DialTCP(hosts[1].Addr(), 80)
			c.OnConnect = func() { c.Send(payload) }
			if err := s.RunFor(5 * time.Minute); err != nil {
				return err
			}
			_, _, r := c.Stats()
			retransmits += r
			c.Close()
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	if received != transfers*total {
		return 0, 0, fmt.Errorf("tcp transfer delivered %d of %d bytes", received, transfers*total)
	}
	return perOp(d, transfers*total/1024), retransmits, nil
}

// kernelIDS feeds n decoded SYN-flood packets, 1000 per 1 s window, to an
// ids.Unit running the threshold rule, and reports the unit's own CPU
// time per packet (Unit.CPUTime / Unit.PacketsSeen).
func kernelIDS(tr *tracer, n int) (float64, error) {
	u := ids.New(ids.Config{Model: ids.NewThresholdRule(), Window: time.Second})
	dst := packet.MACFromUint64(2)
	ipDst := packet.AddrFrom4(10, 0, 0, 2)
	var buf []byte
	p := packet.Acquire()
	defer p.Release()
	_, err := tr.spanN("ids.Unit.Feed", int64(n), func() error {
		for i := 0; i < n; i++ {
			ip := packet.IPv4{Src: packet.AddrFrom4(10, 0, 200, byte(i%256)), Dst: ipDst, TTL: 64}
			tcp := packet.TCP{SrcPort: uint16(1024 + i%60000), DstPort: 80, Seq: uint32(i), Flags: packet.FlagSYN, Window: 512}
			buf = packet.AppendTCP(buf[:0], packet.MACFromUint64(uint64(i%256)+16), dst, ip, tcp, nil)
			if err := packet.DecodeInto(p, sim.Time(i)*sim.Millisecond, buf); err != nil {
				return err
			}
			u.Feed(p)
		}
		u.Flush()
		return nil
	})
	if u.PacketsSeen() != uint64(n) {
		return 0, fmt.Errorf("ids unit saw %d of %d packets", u.PacketsSeen(), n)
	}
	return float64(u.CPUTime().Nanoseconds()) / float64(n), err
}

func perOp(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// fitModels refits the paper's three detectors one at a time through each
// model package's public Train, on TrainModels' split with TrainModels'
// hyperparameters, so each fit gets its own span. The copy goes stale if
// TrainModels changes, so every refit must serialize to the same bytes as
// the model TrainModels produced.
func fitModels(sc experiments.Scenario, ds *dataset.Dataset, trained *experiments.TrainingResult, tr *tracer) (map[string]float64, error) {
	rng := sim.Substream(sc.Seed, "experiments/train")
	work := ds.Subsample(sc.MaxTrainSamples, rng)
	work.Shuffle(rng)
	train, _ := work.Split(0.8)
	off := features.NumBasic()
	rawStats := make([][]float64, train.Len())
	ys := make([]int, train.Len())
	for i := range train.Samples {
		rawStats[i] = train.Samples[i].X[off:]
		ys[i] = train.Samples[i].Y
	}
	scaler := dataset.FitStandard(train)
	scaled := train.Subsample(train.Len(), rng)
	for i := range scaled.Samples {
		scaled.Samples[i].X = scaler.Transformed(scaled.Samples[i].X)
	}
	sxs, sys := scaled.XY()

	fits := []struct {
		name string
		want ml.Classifier
		fit  func() (ml.Classifier, error)
	}{
		{"rf", trained.RF.Model, func() (ml.Classifier, error) {
			return forest.Train(forest.Config{Trees: 60, MaxDepth: 18, MinSamplesLeaf: 1, Seed: sc.Seed + 11}, rawStats, ys)
		}},
		{"kmeans", trained.KMeans.Model, func() (ml.Classifier, error) {
			return kmeans.Train(kmeans.Config{InitClusters: 24, Gamma: 1.5, Seed: sc.Seed + 12}, sxs, sys)
		}},
		{"cnn", trained.CNN.Model, func() (ml.Classifier, error) {
			net, _, err := cnn.Train(cnn.Config{
				Conv1Filters: 8, Conv2Filters: 16, Hidden: 48,
				Epochs: 6, BatchSize: 64, LearningRate: 0.01, Seed: sc.Seed + 13,
			}, sxs, sys)
			return net, err
		}},
	}
	out := make(map[string]float64, len(fits))
	for _, f := range fits {
		var got ml.Classifier
		d, err := tr.spanN("ml.Train/"+f.name, int64(len(ys)), func() (err error) {
			got, err = f.fit()
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("refit %s: %w", f.name, err)
		}
		same, err := sameModel(f.want, got)
		if err != nil {
			return nil, err
		}
		if !same {
			return nil, fmt.Errorf("refit %s differs from TrainModels' model: the benchmark's copy of its split or hyperparameters is stale", f.name)
		}
		out[f.name] = d.Seconds()
	}
	return out, nil
}

// sameModel compares two classifiers by their serialized bytes.
func sameModel(a, b ml.Classifier) (bool, error) {
	var sums [2][sha256.Size]byte
	for i, m := range []ml.Classifier{a, b} {
		if v, ok := m.(ml.OffsetView); ok {
			m = v.Inner
		}
		var buf bytes.Buffer
		if err := modelio.Save(&buf, m); err != nil {
			return false, fmt.Errorf("serialize %s: %w", m.Name(), err)
		}
		sums[i] = sha256.Sum256(buf.Bytes())
	}
	return sums[0] == sums[1], nil
}
