package cnn

import (
	"testing"

	"ddoshield/internal/ml/mltest"
)

// pipelineConfig is the CNN the paper pipeline trains (experiments'
// TrainModels): 8/16 conv filters, 48 hidden units, batch 64, rate 0.01,
// over the 26-feature aggregated vector.
func pipelineConfig() Config {
	return Config{Conv1Filters: 8, Conv2Filters: 16, Hidden: 48,
		Epochs: 1, BatchSize: 64, LearningRate: 0.01, Seed: 42}
}

const pipelineInputs = 26

// sinkClass keeps benchmarked predictions live.
var sinkClass int

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// BenchmarkForward measures one inference (Predict) at the pipeline's
// shape: the per-packet cost of the CNN detector in the real-time run.
func BenchmarkForward(b *testing.B) {
	xs, ys := mltest.Blobs(256, pipelineInputs, 1.2, 1)
	n, _, err := Train(pipelineConfig(), xs, ys)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkClass = n.Predict(xs[i%len(xs)])
	}
}

// BenchmarkFitEpoch measures one Fit call of one epoch at the pipeline's
// shape and hyperparameters over 4,096 rows: mini-batch SGD (forward,
// backward and momentum step per batch) plus Fit's closing
// training-accuracy pass. The pipeline runs six such epochs over ~24k rows.
func BenchmarkFitEpoch(b *testing.B) {
	xs, ys := mltest.Blobs(4096, pipelineInputs, 1.2, 2)
	cfg := pipelineConfig()
	cfg.Inputs = pipelineInputs
	n, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Fit(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFitBatchAllocFree pins a steady-state training mini-batch (forward,
// backward and momentum step over 64 rows) at zero allocations.
func TestFitBatchAllocFree(t *testing.T) {
	xs, ys := mltest.Blobs(256, pipelineInputs, 1.2, 3)
	cfg := pipelineConfig()
	cfg.Inputs = pipelineInputs
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTrainer(n)
	batch := make([]int, cfg.BatchSize)
	for i := range batch {
		batch[i] = i
	}
	tr.batch(n, xs, ys, batch) // sizes the buffers
	start := 0
	allocs := testing.AllocsPerRun(20, func() {
		for i := range batch {
			batch[i] = (start + i) % len(xs)
		}
		start += len(batch)
		tr.batch(n, xs, ys, batch)
	})
	if allocs != 0 {
		t.Fatalf("training mini-batch allocated %.1f/op, want 0", allocs)
	}
}

// TestPredictAllocFree pins inference at zero allocations: the detector
// classifies every captured packet.
func TestPredictAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random, so Predict's pooled buffers reallocate")
	}
	xs, ys := mltest.Blobs(64, pipelineInputs, 1.2, 4)
	n, _, err := Train(pipelineConfig(), xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	n.Predict(xs[0])
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		n.Predict(xs[i%len(xs)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Predict allocated %.1f/op, want 0", allocs)
	}
}
