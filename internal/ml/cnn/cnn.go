// Package cnn implements the paper's third detector: a one-dimensional
// convolutional neural network over the aggregated feature vector, with
// convolution, ReLU, max-pooling, dense layers and a softmax head, trained
// by mini-batch SGD with momentum on cross-entropy loss — the pure-Go
// stand-in for the TensorFlow model of §III-B.
package cnn

import (
	"fmt"
	"math"
	"sync"

	"ddoshield/internal/sim"
)

// Config describes the architecture and the training schedule.
type Config struct {
	// Inputs is the feature-vector length (required).
	Inputs int
	// Conv1Filters/Conv2Filters size the two conv blocks (defaults 16/32).
	Conv1Filters int
	Conv2Filters int
	// Kernel is the 1-D convolution width (default 3).
	Kernel int
	// Hidden is the dense layer width (default 64).
	Hidden int
	// Classes is the output width (default 2).
	Classes int
	// Epochs, BatchSize, LearningRate, Momentum drive SGD
	// (defaults 10, 64, 0.01, 0.9).
	Epochs       int
	BatchSize    int
	LearningRate float64
	Momentum     float64
	// Seed drives weight initialization and batch shuffling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Conv1Filters <= 0 {
		c.Conv1Filters = 16
	}
	if c.Conv2Filters <= 0 {
		c.Conv2Filters = 32
	}
	if c.Kernel <= 0 {
		c.Kernel = 3
	}
	if c.Hidden <= 0 {
		c.Hidden = 64
	}
	if c.Classes <= 0 {
		c.Classes = 2
	}
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.01
	}
	if c.Momentum < 0 || c.Momentum >= 1 {
		c.Momentum = 0.9
	}
	return c
}

// Network is the trained model. Weight tensors are exported for gob
// serialization; layout is documented per field.
type Network struct {
	Cfg Config
	// W1 [f1][kernel], B1 [f1]: conv1 over the single input channel.
	W1 [][]float64
	B1 []float64
	// W2 [f2][f1*kernel], B2 [f2]: conv2 over f1 channels.
	W2 [][]float64
	B2 []float64
	// W3 [hidden][flat], B3 [hidden]: dense layer.
	W3 [][]float64
	B3 []float64
	// W4 [classes][hidden], B4 [classes]: output layer.
	W4 [][]float64
	B4 []float64

	// Geometry, precomputed at construction.
	len1, pool1, len2, pool2, flat int
}

// Name implements ml.Classifier.
func (n *Network) Name() string { return "cnn" }

// New builds an untrained network with small random weights.
func New(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if cfg.Inputs <= 0 {
		return nil, fmt.Errorf("cnn: Inputs required")
	}
	n := &Network{Cfg: cfg}
	n.geometry()
	if n.pool2 < 1 {
		return nil, fmt.Errorf("cnn: input length %d too short for architecture", cfg.Inputs)
	}
	rng := sim.Substream(cfg.Seed, "cnn")
	he := func(fanIn int) float64 { return math.Sqrt(2 / float64(fanIn)) }
	mat := func(rows, cols int, scale float64) [][]float64 {
		m := make([][]float64, rows)
		for i := range m {
			m[i] = make([]float64, cols)
			for j := range m[i] {
				m[i][j] = rng.NormFloat64() * scale
			}
		}
		return m
	}
	n.W1 = mat(cfg.Conv1Filters, cfg.Kernel, he(cfg.Kernel))
	n.B1 = make([]float64, cfg.Conv1Filters)
	n.W2 = mat(cfg.Conv2Filters, cfg.Conv1Filters*cfg.Kernel, he(cfg.Conv1Filters*cfg.Kernel))
	n.B2 = make([]float64, cfg.Conv2Filters)
	n.W3 = mat(cfg.Hidden, n.flat, he(n.flat))
	n.B3 = make([]float64, cfg.Hidden)
	n.W4 = mat(cfg.Classes, cfg.Hidden, he(cfg.Hidden))
	n.B4 = make([]float64, cfg.Classes)
	return n, nil
}

// geometry derives layer lengths from the config.
func (n *Network) geometry() {
	c := n.Cfg
	n.len1 = c.Inputs - c.Kernel + 1
	n.pool1 = n.len1 / 2
	n.len2 = n.pool1 - c.Kernel + 1
	n.pool2 = n.len2 / 2
	n.flat = n.pool2 * c.Conv2Filters
}

// NumParams counts trainable parameters.
func (n *Network) NumParams() int {
	count := func(m [][]float64) int {
		t := 0
		for _, r := range m {
			t += len(r)
		}
		return t
	}
	return count(n.W1) + len(n.B1) + count(n.W2) + len(n.B2) +
		count(n.W3) + len(n.B3) + count(n.W4) + len(n.B4)
}

// InferenceBatch is the batch width assumed for the live-memory estimate:
// production inference engines (the paper's TensorFlow runtime included)
// hold activation tensors for a whole batch at once.
const InferenceBatch = 64

// MemoryBytes estimates the live inference footprint: parameters plus the
// activation tensors of one inference batch — the reason the CNN is the
// heaviest model in Table II.
func (n *Network) MemoryBytes() int64 {
	params := int64(n.NumParams()) * 8
	acts := int64(n.Cfg.Conv1Filters*(n.len1+n.pool1)+
		n.Cfg.Conv2Filters*(n.len2+n.pool2)+
		n.flat+n.Cfg.Hidden+n.Cfg.Classes) * 8
	return params + acts*InferenceBatch + 256
}

// activations holds one forward pass (retained for backprop). Each conv
// block is stored after its ReLU and max-pool, channel-major and flat; a
// pooled value is the ReLU output at its argmax position, which is all the
// backward pass needs of the conv outputs.
type activations struct {
	in    []float64
	pool1 []float64 // [f1][pool1]
	arg1  []int32   // conv1 position each pool1 value came from
	col   []float64 // [2*pool2][f1*kernel]: conv2's input windows
	flat  []float64 // [f2][pool2]: pooled conv2, the dense input
	arg2  []int32   // conv2 position each flat value came from
	hid   []float64 // post-ReLU
	out   []float64 // logits
	prob  []float64 // softmax
}

func relu(v float64) float64 { return math.Float64frombits(reluBits(v)) }

// reluBits is relu on the IEEE-754 bits of v: positive values up to +Inf
// pass, and zeros, negatives and NaNs become +0. Non-negative doubles order
// as their bits do, so pool can compare and select them in integer
// registers, without the branches that random signs mispredict.
func reluBits(v float64) uint64 {
	u := math.Float64bits(v)
	if u-1 >= 0x7ff0000000000000 { // u == 0, or above +Inf's bits
		u = 0
	}
	return u
}

// pool returns the width-2 max-pool of the post-ReLU outputs at positions
// j and j+1, and the position it came from (the first on ties).
func pool(s0, s1 float64, j int) (float64, int32) {
	v0, v1 := reluBits(s0), reluBits(s1)
	at := int32(j)
	if v1 > v0 {
		v0, at = v1, at+1
	}
	return math.Float64frombits(v0), at
}

// forward runs one inference into a. Every output keeps its own
// accumulator, seeded with its bias and fed its terms in ascending weight
// order; the blocked loops only interleave independent outputs, so the
// result is bit-identical to one output at a time. Conv outputs are
// computed in pooled pairs with ReLU and max-pool fused in; an odd conv
// length's last position feeds no pool and is skipped.
func (n *Network) forward(x []float64, a *activations) {
	c := n.Cfg
	K, f1, f2 := c.Kernel, c.Conv1Filters, c.Conv2Filters
	a.in = x
	// conv1 over the single input channel.
	a.pool1 = grow(a.pool1, f1*n.pool1)
	a.arg1 = grow(a.arg1, f1*n.pool1)
	for f := 0; f < f1; f++ {
		w := n.W1[f][:K]
		b := n.B1[f]
		out := a.pool1[f*n.pool1 : (f+1)*n.pool1]
		arg := a.arg1[f*n.pool1 : (f+1)*n.pool1]
		arg = arg[:len(out)]
		for p := range out {
			j := 2 * p
			x0 := x[j : j+len(w)]
			x1 := x[j+1 : j+1+len(w)]
			s0, s1 := b, b
			for k, wk := range w {
				s0 += wk * x0[k]
				s1 += wk * x1[k]
			}
			out[p], arg[p] = pool(s0, s1, j)
		}
	}
	// conv2 over f1 channels: gather each position's window (channel-major,
	// kernel-minor, the W2 row layout), then one dot product per output.
	ck := f1 * K
	used := 2 * n.pool2
	a.col = grow(a.col, used*ck)
	for ch := 0; ch < f1; ch++ {
		row := a.pool1[ch*n.pool1 : (ch+1)*n.pool1]
		for j := 0; j < used; j++ {
			dst := a.col[j*ck+ch*K:][:K]
			for k, v := range row[j:][:len(dst)] {
				dst[k] = v
			}
		}
	}
	a.flat = grow(a.flat, n.flat)
	a.arg2 = grow(a.arg2, n.flat)
	f := 0
	for ; f+2 <= f2; f += 2 { // two filters × the two positions of a pool
		w0, w1 := n.W2[f][:ck], n.W2[f+1][:ck]
		for p := 0; p < n.pool2; p++ {
			j := 2 * p
			c0 := a.col[j*ck : (j+1)*ck]
			c1 := a.col[(j+1)*ck : (j+2)*ck]
			c1, w0, w1 := c1[:len(c0)], w0[:len(c0)], w1[:len(c0)]
			s00, s10 := n.B2[f], n.B2[f+1]
			s01, s11 := s00, s10
			for i, x0 := range c0 {
				x1 := c1[i]
				s00 += w0[i] * x0
				s01 += w0[i] * x1
				s10 += w1[i] * x0
				s11 += w1[i] * x1
			}
			o := f*n.pool2 + p
			a.flat[o], a.arg2[o] = pool(s00, s01, j)
			o += n.pool2
			a.flat[o], a.arg2[o] = pool(s10, s11, j)
		}
	}
	if f < f2 { // odd filter count: the last filter alone
		w := n.W2[f][:ck]
		for p := 0; p < n.pool2; p++ {
			j := 2 * p
			c0 := a.col[j*ck : (j+1)*ck]
			c1 := a.col[(j+1)*ck : (j+2)*ck]
			c1, w := c1[:len(c0)], w[:len(c0)]
			s0, s1 := n.B2[f], n.B2[f]
			for i, x0 := range c0 {
				s0 += w[i] * x0
				s1 += w[i] * c1[i]
			}
			o := f*n.pool2 + p
			a.flat[o], a.arg2[o] = pool(s0, s1, j)
		}
	}
	// dense + ReLU, four hidden units per pass.
	a.hid = grow(a.hid, c.Hidden)
	flat := a.flat
	h := 0
	for ; h+4 <= c.Hidden; h += 4 {
		w0, w1, w2, w3 := n.W3[h][:len(flat)], n.W3[h+1][:len(flat)], n.W3[h+2][:len(flat)], n.W3[h+3][:len(flat)]
		s0, s1, s2, s3 := n.B3[h], n.B3[h+1], n.B3[h+2], n.B3[h+3]
		for j, v := range flat {
			s0 += w0[j] * v
			s1 += w1[j] * v
			s2 += w2[j] * v
			s3 += w3[j] * v
		}
		a.hid[h], a.hid[h+1], a.hid[h+2], a.hid[h+3] = relu(s0), relu(s1), relu(s2), relu(s3)
	}
	for ; h < c.Hidden; h++ {
		w := n.W3[h][:len(flat)]
		s := n.B3[h]
		for j, v := range flat {
			s += w[j] * v
		}
		a.hid[h] = relu(s)
	}
	// output + softmax.
	a.out = grow(a.out, c.Classes)
	maxLogit := math.Inf(-1)
	for o := range a.out {
		w := n.W4[o][:len(a.hid)]
		s := n.B4[o]
		for h, v := range a.hid {
			s += w[h] * v
		}
		a.out[o] = s
		if s > maxLogit {
			maxLogit = s
		}
	}
	a.prob = grow(a.prob, c.Classes)
	var z float64
	for o, s := range a.out {
		e := math.Exp(s - maxLogit)
		a.prob[o] = e
		z += e
	}
	for o := range a.prob {
		a.prob[o] /= z
	}
}

// grow returns v resized to n, reallocating only when it lacks capacity.
func grow[T any](v []T, n int) []T {
	if cap(v) < n {
		v = make([]T, n)
	}
	return v[:n]
}

// actPool recycles inference activation buffers. Predict pulls a buffer per
// call instead of mutating Network state, so trained networks are safe to
// share across goroutines — the parallel experiment sweeps rely on that.
var actPool = sync.Pool{New: func() any { return new(activations) }}

// Predict returns the argmax class for x. It is safe for concurrent use.
func (n *Network) Predict(x []float64) int {
	a := actPool.Get().(*activations)
	n.forward(x, a)
	best, bestP := 0, -1.0
	for o, p := range a.prob {
		if p > bestP {
			best, bestP = o, p
		}
	}
	a.in = nil // do not pin the caller's vector in the pool
	actPool.Put(a)
	return best
}

// Prob returns the class probability vector for x.
func (n *Network) Prob(x []float64) []float64 {
	var a activations
	n.forward(x, &a)
	out := make([]float64, len(a.prob))
	copy(out, a.prob)
	return out
}
