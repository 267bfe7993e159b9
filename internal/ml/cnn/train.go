package cnn

import (
	"fmt"
	"math"

	"ddoshield/internal/sim"
)

// grads mirrors the weight tensors for accumulation.
type grads struct {
	w1 [][]float64
	b1 []float64
	w2 [][]float64
	b2 []float64
	w3 [][]float64
	b3 []float64
	w4 [][]float64
	b4 []float64
}

func newGrads(n *Network) *grads {
	like := func(m [][]float64) [][]float64 {
		out := make([][]float64, len(m))
		for i := range m {
			out[i] = make([]float64, len(m[i]))
		}
		return out
	}
	return &grads{
		w1: like(n.W1), b1: make([]float64, len(n.B1)),
		w2: like(n.W2), b2: make([]float64, len(n.B2)),
		w3: like(n.W3), b3: make([]float64, len(n.B3)),
		w4: like(n.W4), b4: make([]float64, len(n.B4)),
	}
}

func (g *grads) zero() {
	z2 := func(m [][]float64) {
		for i := range m {
			for j := range m[i] {
				m[i][j] = 0
			}
		}
	}
	z1 := func(v []float64) {
		for i := range v {
			v[i] = 0
		}
	}
	z2(g.w1)
	z1(g.b1)
	z2(g.w2)
	z1(g.b2)
	z2(g.w3)
	z1(g.b3)
	z2(g.w4)
	z1(g.b4)
}

// backward accumulates gradients of the cross-entropy loss at (a, y).
// Every gradient and every back-propagated delta receives the same terms
// in the same order as a plain loop over all units would give it. Units
// whose delta is zero are skipped exactly as such a loop would skip them,
// and the blocked loops only interleave independent accumulators.
func (n *Network) backward(a *activations, y int, g *grads, s *bwScratch) {
	c := n.Cfg
	K, f1, f2 := c.Kernel, c.Conv1Filters, c.Conv2Filters
	// Output layer: dlogit = prob - onehot.
	s.dout = grow(s.dout, c.Classes)
	dout := s.dout
	for o := range dout {
		dout[o] = a.prob[o]
		if o == y {
			dout[o]--
		}
	}
	hid := a.hid
	for o, d := range dout {
		g.b4[o] += d
		gw := g.w4[o][:len(hid)]
		for h, v := range hid {
			gw[h] += d * v
		}
	}
	// Hidden deltas behind the ReLU gate: keep the nonzero ones, in order.
	s.hidx, s.hd = grow(s.hidx, c.Hidden)[:0], grow(s.hd, c.Hidden)[:0]
	for h, v := range hid {
		if v <= 0 {
			continue
		}
		var d float64
		for o, do := range dout {
			d += n.W4[o][h] * do
		}
		if d != 0 {
			s.hidx = append(s.hidx, int32(h))
			s.hd = append(s.hd, d)
		}
	}
	// Dense layer, four live hidden units per pass.
	flat := a.flat
	s.dflat = grow(s.dflat, len(flat))
	dflat := s.dflat
	clear(dflat)
	hs, ds := s.hidx, s.hd[:len(s.hidx)]
	k := 0
	for ; k+4 <= len(hs); k += 4 {
		h0, h1, h2, h3 := hs[k], hs[k+1], hs[k+2], hs[k+3]
		d0, d1, d2, d3 := ds[k], ds[k+1], ds[k+2], ds[k+3]
		g.b3[h0] += d0
		g.b3[h1] += d1
		g.b3[h2] += d2
		g.b3[h3] += d3
		w0, w1, w2, w3 := n.W3[h0][:len(flat)], n.W3[h1][:len(flat)], n.W3[h2][:len(flat)], n.W3[h3][:len(flat)]
		g0, g1, g2, g3 := g.w3[h0][:len(flat)], g.w3[h1][:len(flat)], g.w3[h2][:len(flat)], g.w3[h3][:len(flat)]
		dflat := dflat[:len(flat)]
		for j, v := range flat {
			t := dflat[j]
			t += w0[j] * d0
			t += w1[j] * d1
			t += w2[j] * d2
			t += w3[j] * d3
			dflat[j] = t
			g0[j] += d0 * v
			g1[j] += d1 * v
			g2[j] += d2 * v
			g3[j] += d3 * v
		}
	}
	for ; k < len(hs); k++ {
		h, d := hs[k], ds[k]
		g.b3[h] += d
		w, gw := n.W3[h][:len(flat)], g.w3[h][:len(flat)]
		dflat := dflat[:len(flat)]
		for j, v := range flat {
			dflat[j] += w[j] * d
			gw[j] += d * v
		}
	}
	// conv2: each filter's live positions (pooled, positive, nonzero
	// delta) in ascending order.
	ck := f1 * K
	s.dpool1 = grow(s.dpool1, f1*n.pool1)
	dpool1 := s.dpool1
	clear(dpool1)
	s.pos, s.pd = grow(s.pos, n.pool2), grow(s.pd, n.pool2)
	s.off = grow(s.off, ck)
	off := s.off
	for ch := 0; ch < f1; ch++ {
		for k := 0; k < K; k++ {
			off[ch*K+k] = int32(ch*n.pool1 + k)
		}
	}
	for f := 0; f < f2; f++ {
		s.pos, s.pd = s.pos[:0], s.pd[:0]
		for p := 0; p < n.pool2; p++ {
			o := f*n.pool2 + p
			if d := dflat[o]; d != 0 && flat[o] > 0 {
				g.b2[f] += d
				s.pos = append(s.pos, a.arg2[o])
				s.pd = append(s.pd, d)
			}
		}
		pos, pd := s.pos, s.pd[:len(s.pos)]
		// Weight gradients: each W2 entry adds its terms position by
		// position, four positions per pass.
		gw := g.w2[f][:ck]
		e := 0
		for ; e+4 <= len(pos); e += 4 {
			c0 := a.col[int(pos[e])*ck:][:len(gw)]
			c1 := a.col[int(pos[e+1])*ck:][:len(gw)]
			c2 := a.col[int(pos[e+2])*ck:][:len(gw)]
			c3 := a.col[int(pos[e+3])*ck:][:len(gw)]
			d0, d1, d2, d3 := pd[e], pd[e+1], pd[e+2], pd[e+3]
			for i, t := range gw {
				t += d0 * c0[i]
				t += d1 * c1[i]
				t += d2 * c2[i]
				t += d3 * c3[i]
				gw[i] = t
			}
		}
		for ; e < len(pos); e++ {
			c0 := a.col[int(pos[e])*ck:][:len(gw)]
			d := pd[e]
			for i := range gw {
				gw[i] += d * c0[i]
			}
		}
		// Input deltas, position by position: W2 entry i of the position
		// at j feeds dpool1[off[i]+j].
		w := n.W2[f][:len(off)]
		for e, j := range pos {
			d := pd[e]
			dp := dpool1[j:]
			for i, wi := range w {
				dp[off[i]] += wi * d
			}
		}
	}
	// pool1 backward + conv1 ReLU gate + conv1 weight grads.
	for ch := 0; ch < f1; ch++ {
		gw := g.w1[ch][:K]
		dp := dpool1[ch*n.pool1 : (ch+1)*n.pool1]
		for p, d := range dp {
			o := ch*n.pool1 + p
			if d == 0 || a.pool1[o] <= 0 {
				continue
			}
			g.b1[ch] += d
			in := a.in[a.arg1[o]:][:len(gw)]
			for k, v := range in {
				gw[k] += d * v
			}
		}
	}
}

// bwScratch is backward's reusable working storage.
type bwScratch struct {
	dout, dflat, dpool1 []float64
	// hidx/hd are the live hidden units and their deltas; pos/pd one
	// conv2 filter's live positions and deltas; off maps a W2 row entry
	// to its dpool1 index at position 0.
	hidx, pos, off []int32
	hd, pd         []float64
}

// TrainResult summarizes a training run.
type TrainResult struct {
	// EpochLoss is the mean cross-entropy per epoch.
	EpochLoss []float64
	// FinalAccuracy is the training-set accuracy after the last epoch.
	FinalAccuracy float64
}

// Train fits the network on rows xs with labels ys using mini-batch SGD
// with momentum, and returns the per-epoch loss curve.
func Train(cfg Config, xs [][]float64, ys []int) (*Network, TrainResult, error) {
	if len(xs) == 0 {
		return nil, TrainResult{}, fmt.Errorf("cnn: empty training set")
	}
	if len(xs) != len(ys) {
		return nil, TrainResult{}, fmt.Errorf("cnn: %d rows vs %d labels", len(xs), len(ys))
	}
	cfg.Inputs = len(xs[0])
	n, err := New(cfg)
	if err != nil {
		return nil, TrainResult{}, err
	}
	res, err := n.Fit(xs, ys)
	return n, res, err
}

// Fit runs the configured SGD schedule on an existing network.
func (n *Network) Fit(xs [][]float64, ys []int) (TrainResult, error) {
	cfg := n.Cfg
	rng := sim.Substream(cfg.Seed, "cnn/train")
	t := newTrainer(n)
	var res TrainResult

	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		t.lossSum = 0
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			t.batch(n, xs, ys, order[start:end])
		}
		res.EpochLoss = append(res.EpochLoss, t.lossSum/float64(len(order)))
	}
	correct := 0
	for i := range xs {
		if n.Predict(xs[i]) == ys[i] {
			correct++
		}
	}
	res.FinalAccuracy = float64(correct) / float64(len(xs))
	return res, nil
}

// trainer is one Fit's working state, reused by every mini-batch: after
// the first batch has sized its buffers, a batch allocates nothing.
type trainer struct {
	g, vel  *grads
	a       activations
	scratch bwScratch
	// lossSum accumulates the current epoch's per-row losses in row order.
	lossSum float64
}

func newTrainer(n *Network) *trainer {
	return &trainer{g: newGrads(n), vel: newGrads(n)}
}

// batch runs forward and backward over the rows idx of one mini-batch and
// applies one momentum step.
func (t *trainer) batch(n *Network, xs [][]float64, ys []int, idx []int) {
	t.g.zero()
	for _, i := range idx {
		n.forward(xs[i], &t.a)
		t.lossSum += -math.Log(t.a.prob[ys[i]] + 1e-12)
		n.backward(&t.a, ys[i], t.g, &t.scratch)
	}
	n.step(t.g, t.vel, float64(len(idx)))
}

// step applies one momentum-SGD update from accumulated gradients.
func (n *Network) step(g, vel *grads, batch float64) {
	lr, mu := n.Cfg.LearningRate, n.Cfg.Momentum
	upd2 := func(w, gw, vw [][]float64) {
		for i := range w {
			for j := range w[i] {
				vw[i][j] = mu*vw[i][j] - lr*gw[i][j]/batch
				w[i][j] += vw[i][j]
			}
		}
	}
	upd1 := func(w, gw, vw []float64) {
		for i := range w {
			vw[i] = mu*vw[i] - lr*gw[i]/batch
			w[i] += vw[i]
		}
	}
	upd2(n.W1, g.w1, vel.w1)
	upd1(n.B1, g.b1, vel.b1)
	upd2(n.W2, g.w2, vel.w2)
	upd1(n.B2, g.b2, vel.b2)
	upd2(n.W3, g.w3, vel.w3)
	upd1(n.B3, g.b3, vel.b3)
	upd2(n.W4, g.w4, vel.w4)
	upd1(n.B4, g.b4, vel.b4)
}

// Rebind recomputes derived geometry after gob decoding (gob only restores
// exported fields).
func (n *Network) Rebind() { n.geometry() }
