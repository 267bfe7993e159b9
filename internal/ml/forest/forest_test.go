package forest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"ddoshield/internal/ml/mltest"
)

func TestForestLearnsBlobs(t *testing.T) {
	xs, ys := mltest.Blobs(600, 6, 3, 1)
	f, err := Train(Config{Trees: 20, Seed: 1}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	testX, testY := mltest.Blobs(200, 6, 3, 2)
	if acc := mltest.Accuracy(f.Predict, testX, testY); acc < 0.95 {
		t.Fatalf("blob accuracy = %.3f", acc)
	}
}

func TestForestLearnsXOR(t *testing.T) {
	xs, ys := mltest.XOR(800, 3)
	f, err := Train(Config{Trees: 25, MaxDepth: 8, Seed: 2}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	testX, testY := mltest.XOR(300, 4)
	if acc := mltest.Accuracy(f.Predict, testX, testY); acc < 0.95 {
		t.Fatalf("XOR accuracy = %.3f (trees must beat linear boundary)", acc)
	}
}

func TestForestRejectsBadInput(t *testing.T) {
	if _, err := Train(Config{}, nil, nil); err == nil {
		t.Fatal("accepted empty training set")
	}
	if _, err := Train(Config{}, [][]float64{{1}}, []int{0, 1}); err == nil {
		t.Fatal("accepted mismatched labels")
	}
}

// nodeDigest hashes every node of every tree, field by field.
func nodeDigest(f *Forest) string {
	h := sha256.New()
	for _, t := range f.TreeList {
		for _, n := range t.Nodes {
			binary.Write(h, binary.LittleEndian, []uint64{
				uint64(uint32(n.Feature)), math.Float64bits(n.Threshold),
				uint64(uint32(n.Left)), uint64(uint32(n.Right)), uint64(uint32(n.Class)),
			})
		}
		h.Write([]byte{0xff})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tiedBlobs is Blobs with every value rounded to a quarter, so most
// features carry many tied values: splits must land only on value
// boundaries, whatever order a sort leaves the ties in.
func tiedBlobs(n, d int, seed int64) ([][]float64, []int) {
	xs, ys := mltest.Blobs(n, d, 1, seed)
	for _, x := range xs {
		for j := range x {
			x[j] = math.Round(x[j]*4) / 4
		}
	}
	return xs, ys
}

// TestForestDeterministic pins every node of a forest trained on tied
// values, at the paper pipeline's settings (deep trees, leaves of one) and
// at the defaults. A faster trainer must grow exactly these trees. The
// digests are amd64's: an architecture that fuses the Gini multiply-adds
// may break near-ties differently, so there only two runs are compared.
func TestForestDeterministic(t *testing.T) {
	xs, ys := tiedBlobs(1500, 16, 5)
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"pipeline", Config{Trees: 8, MaxDepth: 18, MinSamplesLeaf: 1, Seed: 9},
			"5e5376d4b23063f82530e5781a6a7624ffe0ed4f311c2d1630e4266dbc18cc6b"},
		{"defaults", Config{Trees: 5, Seed: 10},
			"eec9870a1b5aa874e061ec20fe24d2b37a19c02c7c66a70316a8c4febdbb5fd8"},
	}
	for _, tc := range cases {
		f1, err := Train(tc.cfg, xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		f2, err := Train(tc.cfg, xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		got := nodeDigest(f1)
		if again := nodeDigest(f2); again != got {
			t.Fatalf("%s: same-seed forests differ", tc.name)
		}
		if runtime.GOARCH == "amd64" && got != tc.want {
			t.Errorf("%s: node digest %s, want %s", tc.name, got, tc.want)
		}
		for i := 0; i < 50; i++ {
			if f1.Predict(xs[i]) != f2.Predict(xs[i]) {
				t.Fatalf("%s: same-seed predictions differ", tc.name)
			}
		}
	}
}

func TestMaxDepthRespected(t *testing.T) {
	xs, ys := mltest.XOR(500, 6)
	f, err := Train(Config{Trees: 3, MaxDepth: 4, Seed: 1}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for _, tree := range f.TreeList {
		if d := tree.Depth(); d > 5 { // depth counts nodes: 4 splits + leaf
			t.Fatalf("tree depth %d exceeds max", d)
		}
	}
}

func TestPureNodeBecomesLeaf(t *testing.T) {
	// Single-class data: the tree must be a single leaf.
	xs := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	ys := []int{1, 1, 1, 1}
	f, err := Train(Config{Trees: 1, Seed: 1}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.TreeList[0].Nodes) != 1 {
		t.Fatalf("pure tree has %d nodes", len(f.TreeList[0].Nodes))
	}
	if f.Predict([]float64{0, 0}) != 1 {
		t.Fatal("pure tree mispredicts")
	}
}

func TestMemoryBytesScalesWithNodes(t *testing.T) {
	xs, ys := mltest.Blobs(400, 4, 1, 7) // overlapping: bigger trees
	small, err := Train(Config{Trees: 2, MaxDepth: 3, Seed: 1}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Train(Config{Trees: 40, MaxDepth: 12, Seed: 1}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if small.MemoryBytes() >= big.MemoryBytes() {
		t.Fatalf("memory: small=%d big=%d", small.MemoryBytes(), big.MemoryBytes())
	}
	if small.Name() != "rf" {
		t.Fatal("Name()")
	}
}
