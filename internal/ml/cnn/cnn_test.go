package cnn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"ddoshield/internal/ml/mltest"
)

func TestCNNLearnsBlobs(t *testing.T) {
	xs, ys := mltest.Blobs(600, 16, 2, 1)
	n, res, err := Train(Config{Epochs: 8, Seed: 1}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.95 {
		t.Fatalf("train accuracy = %.3f", res.FinalAccuracy)
	}
	testX, testY := mltest.Blobs(200, 16, 2, 2)
	if acc := mltest.Accuracy(n.Predict, testX, testY); acc < 0.93 {
		t.Fatalf("test accuracy = %.3f", acc)
	}
}

func TestLossDecreases(t *testing.T) {
	xs, ys := mltest.Blobs(400, 16, 2, 3)
	_, res, err := Train(Config{Epochs: 6, Seed: 3}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.EpochLoss[0], res.EpochLoss[len(res.EpochLoss)-1]
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestProbSumsToOne(t *testing.T) {
	xs, ys := mltest.Blobs(100, 16, 2, 4)
	n, _, err := Train(Config{Epochs: 2, Seed: 4}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	p := n.Prob(xs[0])
	var sum float64
	for _, v := range p {
		if v < 0 || v > 1 {
			t.Fatalf("probability %v out of range", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestCNNRejectsBadInput(t *testing.T) {
	if _, _, err := Train(Config{}, nil, nil); err == nil {
		t.Fatal("accepted empty training set")
	}
	if _, _, err := Train(Config{}, [][]float64{{1, 2}}, []int{0, 1}); err == nil {
		t.Fatal("accepted mismatched labels")
	}
	// Input too short for two conv+pool blocks.
	if _, err := New(Config{Inputs: 4}); err == nil {
		t.Fatal("accepted too-short input")
	}
}

func TestGradientCheck(t *testing.T) {
	// Numerical gradient check on a tiny network: backprop must match
	// finite differences.
	cfg := Config{Inputs: 12, Conv1Filters: 2, Conv2Filters: 2, Hidden: 4, Seed: 5}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 12)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	y := 1
	loss := func() float64 {
		var a activations
		n.forward(x, &a)
		return -math.Log(a.prob[y] + 1e-12)
	}
	g := newGrads(n)
	var a activations
	var scratch bwScratch
	n.forward(x, &a)
	n.backward(&a, y, g, &scratch)

	check := func(w [][]float64, gw [][]float64, name string) {
		const eps = 1e-6
		// Probe a few entries per tensor.
		for _, probe := range [][2]int{{0, 0}, {1, 0}} {
			i, j := probe[0], probe[1]
			if i >= len(w) || j >= len(w[i]) {
				continue
			}
			orig := w[i][j]
			w[i][j] = orig + eps
			lp := loss()
			w[i][j] = orig - eps
			lm := loss()
			w[i][j] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-gw[i][j]) > 1e-4*(1+math.Abs(num)) {
				t.Errorf("%s[%d][%d]: numerical %v vs backprop %v", name, i, j, num, gw[i][j])
			}
		}
	}
	check(n.W1, g.w1, "W1")
	check(n.W2, g.w2, "W2")
	check(n.W3, g.w3, "W3")
	check(n.W4, g.w4, "W4")
}

// TestReluBits checks the bit-level ReLU against its definition,
// max(v, 0) with v > 0 deciding, on the values where the two could part.
func TestReluBits(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -1, 5e-324, -5e-324,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000000)} {
		want := 0.0
		if v > 0 {
			want = v
		}
		if got := relu(v); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("relu(%v) = %v (bits %x), want %v", v, got, math.Float64bits(got), want)
		}
	}
	// pool keeps the first position on ties and compares post-ReLU values.
	if v, at := pool(-3, -1, 4); v != 0 || at != 4 {
		t.Errorf("pool(-3, -1) = %v at %d, want 0 at 4", v, at)
	}
	if v, at := pool(1, 2, 4); v != 2 || at != 5 {
		t.Errorf("pool(1, 2) = %v at %d, want 2 at 5", v, at)
	}
}

func TestNumParamsAndMemory(t *testing.T) {
	n, err := New(Config{Inputs: 26, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n.NumParams() < 1000 {
		t.Fatalf("NumParams = %d, implausibly small", n.NumParams())
	}
	if n.MemoryBytes() <= int64(n.NumParams())*8 {
		t.Fatal("MemoryBytes must include activations")
	}
	if n.Name() != "cnn" {
		t.Fatal("Name()")
	}
}

// weightDigest hashes the IEEE-754 bits of every weight and bias, in
// field order, followed by the network's probabilities on probe rows.
func weightDigest(n *Network, probes [][]float64) string {
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, m := range [][][]float64{n.W1, {n.B1}, n.W2, {n.B2}, n.W3, {n.B3}, n.W4, {n.B4}} {
		for _, row := range m {
			for _, v := range row {
				put(v)
			}
		}
	}
	for _, x := range probes {
		for _, p := range n.Prob(x) {
			put(p)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDeterministicTraining pins every trained weight bit. The first shape
// is the paper pipeline's (26 features, 8/16/48); the second has conv2
// lengths, filter counts and a hidden width that are not multiples of four,
// so every remainder path of the kernels runs. A kernel rewrite must
// reproduce these digests exactly: same terms, same order, same rounding.
// The digests are amd64's, where Go fuses no multiply-add; architectures
// that fuse (arm64, ppc64le, s390x) round differently and only check that
// two same-seed runs agree.
func TestDeterministicTraining(t *testing.T) {
	cases := []struct {
		name   string
		inputs int
		cfg    Config
		want   string
	}{
		{"pipeline", 26, Config{Conv1Filters: 8, Conv2Filters: 16, Hidden: 48,
			Epochs: 3, BatchSize: 64, LearningRate: 0.01, Seed: 8},
			"cab6de47c7a778a81ca30867393ec584bf9c6430a7f427d6ef66d34127928ae6"},
		{"ragged", 21, Config{Conv1Filters: 5, Conv2Filters: 7, Hidden: 13,
			Epochs: 3, BatchSize: 50, LearningRate: 0.02, Momentum: 0.8, Seed: 9},
			"b0506ce3a7658cce071dcbfa0d544b1c9ec578dc1021737543d16aabcc786354"},
	}
	for _, tc := range cases {
		xs, ys := mltest.Blobs(500, tc.inputs, 1.2, 6)
		probes, _ := mltest.Blobs(16, tc.inputs, 1.2, 7)
		n1, _, err := Train(tc.cfg, xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		n2, _, err := Train(tc.cfg, xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		got := weightDigest(n1, probes)
		if again := weightDigest(n2, probes); again != got {
			t.Fatalf("%s: same-seed training diverged: %s vs %s", tc.name, got, again)
		}
		if runtime.GOARCH == "amd64" && got != tc.want {
			t.Errorf("%s: weight digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCloneAndWeightOps(t *testing.T) {
	xs, ys := mltest.Blobs(200, 16, 2, 9)
	n, _, err := Train(Config{Epochs: 1, Seed: 9}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	clone := n.Clone()
	// Clone predicts identically but is independent storage.
	for i := 0; i < 20; i++ {
		if clone.Predict(xs[i]) != n.Predict(xs[i]) {
			t.Fatal("clone predictions differ")
		}
	}
	clone.W1[0][0] += 100
	if n.W1[0][0] == clone.W1[0][0] {
		t.Fatal("clone shares weight storage")
	}

	// ScaleAccumulate of two halves reproduces the original.
	acc := n.Clone()
	acc.ZeroWeights()
	acc.ScaleAccumulate(n, 0.5)
	acc.ScaleAccumulate(n, 0.5)
	if diff := acc.W3[1][1] - n.W3[1][1]; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("averaged weights diverge: %v", diff)
	}

	// SetWeightsFrom copies values, not references.
	dst := n.Clone()
	dst.ZeroWeights()
	dst.SetWeightsFrom(n)
	if dst.W4[0][0] != n.W4[0][0] {
		t.Fatal("SetWeightsFrom did not copy")
	}
	dst.W4[0][0] += 1
	if dst.W4[0][0] == n.W4[0][0] {
		t.Fatal("SetWeightsFrom aliased storage")
	}
}
