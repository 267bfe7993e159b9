package forest

import "testing"

// sinkClass keeps benchmarked predictions live.
var sinkClass int

// BenchmarkTrain fits the paper pipeline's forest (60 trees, depth 18,
// leaves of one) on 4,000 rows of 16 tied-valued features: the pipeline's
// RF reads the 16-feature window-statistics block.
func BenchmarkTrain(b *testing.B) {
	xs, ys := tiedBlobs(4000, 16, 3)
	cfg := Config{Trees: 60, MaxDepth: 18, MinSamplesLeaf: 1, Seed: 53}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(cfg, xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredict measures one majority vote of that forest.
func BenchmarkPredict(b *testing.B) {
	xs, ys := tiedBlobs(4000, 16, 3)
	f, err := Train(Config{Trees: 60, MaxDepth: 18, MinSamplesLeaf: 1, Seed: 53}, xs, ys)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkClass = f.Predict(xs[i%len(xs)])
	}
}

// TestPredictAllocFree pins the majority vote at zero allocations: the
// detector classifies every captured packet.
func TestPredictAllocFree(t *testing.T) {
	xs, ys := tiedBlobs(400, 16, 4)
	f, err := Train(Config{Trees: 10, Seed: 5}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		f.Predict(xs[i%len(xs)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Predict allocated %.1f/op, want 0", allocs)
	}
}
