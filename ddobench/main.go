// Command ddobench is the repository benchmark. It runs one named workload
// for a wall-clock budget, checks the workload's outputs, and prints its
// metrics as one JSON object on the last line of standard output:
//
//	bash ddobench/run.sh --workload fleet-100k --seed 7 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// untraced, traced and untraced again, then the layer probes, and reports
// the per-layer metrics. README.md describes the workloads and the metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// referenceFile holds the committed output digests of the full-size
// workloads, keyed by workload and seed.
const referenceFile = "reference_digests.json"

//go:embed reference_digests.json
var referenceJSON []byte

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: paper-pipeline, fleet-100k or flood-mitigated")
	flag.Int64Var(&cfg.seed, "seed", 42, "input seed; iteration i of a run uses seed+i")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "wall-clock seconds to keep starting iterations")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	update := flag.Bool("update-reference", false, "add the digests of seeds that have no reference to ddobench/"+referenceFile)
	flag.Parse()
	cfg.out, cfg.root, cfg.size = ".bench_build/ddobench", ".", fullSize()
	ref := referenceJSON
	if *update {
		// Add to the file as it is now, not as it was built in.
		cfg.refPath = filepath.Join("ddobench", referenceFile)
		var err error
		if ref, err = os.ReadFile(cfg.refPath); err != nil {
			fmt.Fprintln(os.Stderr, "ddobench:", err)
			os.Exit(2)
		}
	}
	if err := json.Unmarshal(ref, &cfg.ref); err != nil {
		fmt.Fprintln(os.Stderr, "ddobench: read", referenceFile+":", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddobench:", err)
		os.Exit(2)
	}
	if res.Failed > 0 {
		os.Exit(1)
	}
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	// out holds the digest store and result files; root is the repository
	// root the sources are hashed from. Both are relative to the working
	// directory, which run.sh sets to the repository root.
	out, root string
	size      size
	// ref holds the reference digests for size; refPath, when set, is where
	// the run writes them back with the seeds that had none added.
	ref     referenceDigests
	refPath string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the result file: the result with where and how it was
// measured, every iteration, and the span tree of a traced run.
type record struct {
	Provenance provenance   `json:"provenance"`
	Result     result       `json:"result"`
	Iterations []*iteration `json:"iterations"`
	Errors     []string     `json:"errors,omitempty"`
	Warnings   []string     `json:"warnings,omitempty"`
	Spans      []span       `json:"spans,omitempty"`
}

// runState counts operations and keeps what the result file records.
type runState struct {
	rec    record
	store  *digestStore
	stderr io.Writer
}

// op books one attempted operation; err or a digest mismatch fails it. A
// model-digest mismatch is reported as a warning only (see runPipeline).
func (s *runState) op(workload string, it *iteration, err error) bool {
	s.rec.Result.Attempted++
	if err == nil && it != nil {
		err = s.store.check(workload, it.Seed, it.Digest)
	}
	if err != nil {
		s.rec.Result.Failed++
		s.rec.Errors = append(s.rec.Errors, err.Error())
		fmt.Fprintf(s.stderr, "ddobench: %s: %v\n", workload, err)
		return false
	}
	if it != nil && it.ModelDigest != "" {
		if err := s.store.checkLocal(workload+"-models", it.Seed, it.ModelDigest); err != nil {
			s.rec.Warnings = append(s.rec.Warnings, "model outputs not reproduced: "+err.Error())
			fmt.Fprintf(s.stderr, "ddobench: %s: warning: model outputs not reproduced: %v\n", workload, err)
		}
	}
	return true
}

func run(cfg config, stdout, stderr io.Writer) (*result, error) {
	ws := workloads(cfg.size)
	w, ok := ws[cfg.workload]
	if !ok {
		names := make([]string, 0, len(ws))
		for n := range ws {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(names, ", "))
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", cfg.trace)
	}
	prov, err := newProvenance(cfg, w)
	if err != nil {
		return nil, err
	}
	st := &runState{
		rec:    record{Provenance: prov, Result: result{Metrics: map[string]metric{}}},
		store:  newDigestStore(cfg),
		stderr: stderr,
	}
	if err := json.NewEncoder(stdout).Encode(map[string]any{"provenance": prov}); err != nil {
		return nil, err
	}
	if cfg.trace == 1 {
		traceRun(cfg, ws, w, st)
	} else {
		measure(cfg, w, st)
	}
	res := &st.rec.Result
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if cfg.refPath != "" && res.Correct {
		if err := st.store.writeReference(cfg.refPath); err != nil {
			return nil, err
		}
	}
	if err := writeRecord(cfg, st.rec); err != nil {
		return nil, err
	}
	report := map[string]any{"report": outputsOf(st.rec.Iterations), "warnings": st.rec.Warnings}
	if err := json.NewEncoder(stdout).Encode(report); err != nil {
		return nil, err
	}
	return res, json.NewEncoder(stdout).Encode(res)
}

// minIterations is the fewest iterations a run reports the median of, so
// one slow iteration cannot set it.
const minIterations = 3

// measure is the untraced run: iterations until the budget is spent (and
// at least minIterations), reported as medians.
func measure(cfg config, w *workload, st *runState) {
	var setups, heaps, walls []float64
	start := time.Now()
	for i := 0; i < minIterations || time.Since(start).Seconds() < cfg.seconds; i++ {
		it, err := w.iterate(cfg.seed+int64(i), nil)
		if !st.op(w.name, it, err) {
			continue
		}
		setups = append(setups, it.SetupS)
		heaps = append(heaps, it.HeapPerDevice)
		walls = append(walls, it.WallS/it.Units)
		// Drop the dataset and model handles; only the figures are kept.
		it.build, it.run, it.pipe = nil, nil, nil
		st.rec.Iterations = append(st.rec.Iterations, it)
		fmt.Fprintf(st.stderr, "ddobench: %s seed %d: %.3f s per unit\n", w.name, it.Seed, it.WallS/it.Units)
	}
	m := st.rec.Result.Metrics
	if len(walls) > 0 {
		m["setup_s"] = metric{median(setups), "s"}
		m["wall_s_per_unit"] = metric{median(walls), "s"}
		m["heap_bytes_per_device"] = metric{median(heaps), "B"}
	}
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func outputsOf(its []*iteration) []map[string]any {
	out := make([]map[string]any, 0, len(its))
	for _, it := range its {
		o := map[string]any{"seed": it.Seed, "wall_s": it.WallS}
		for k, v := range it.Outputs {
			o[k] = v
		}
		out = append(out, o)
	}
	return out
}

func writeRecord(cfg config, rec record) error {
	dir := filepath.Join(cfg.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, cfg.trace)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// referenceDigests maps workload and seed to the output digest a run of
// that seed must produce.
type referenceDigests map[string]map[string]string

// digestStore checks each (workload, seed) output digest. A seed with a
// committed reference digest must match it on any source tree, so a change
// that alters simulated results fails. Other seeds are checked against the
// first run recorded in a local store (keyed by input size only, so a
// workspace that ran the parent checks the change against it).
type digestStore struct {
	dir, key string
	ref      referenceDigests
	// update adds the digests of seeds without a reference to ref.
	update bool
}

func newDigestStore(cfg config) *digestStore {
	return &digestStore{dir: filepath.Join(cfg.out, "digests"), key: cfg.size.Label, ref: cfg.ref, update: cfg.refPath != ""}
}

func (d *digestStore) check(workload string, seed int64, digest string) error {
	key := strconv.FormatInt(seed, 10)
	if want, ok := d.ref[workload][key]; ok {
		if want != digest {
			return fmt.Errorf("seed %d: output digest %s differs from the reference %s in ddobench/%s", seed, digest[:16], want[:min(16, len(want))], referenceFile)
		}
		return nil
	}
	if d.update {
		if d.ref[workload] == nil {
			d.ref[workload] = map[string]string{}
		}
		d.ref[workload][key] = digest
		return nil
	}
	return d.checkLocal(workload, seed, digest)
}

// checkLocal checks digest against the first one the local store recorded
// for (workload, seed), recording it if there is none.
func (d *digestStore) checkLocal(workload string, seed int64, digest string) error {
	path := filepath.Join(d.dir, fmt.Sprintf("%s-%d-%s.sha256", workload, seed, d.key))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != digest {
			return fmt.Errorf("seed %d: output digest %s differs from the earlier run's %s", seed, digest[:16], string(prev)[:min(16, len(prev))])
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		if err := os.MkdirAll(d.dir, 0o755); err != nil {
			return err
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, []byte(digest), 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	default:
		return err
	}
}

func (d *digestStore) writeReference(path string) error {
	data, err := json.MarshalIndent(d.ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// provenance says where and how a result was measured.
type provenance struct {
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	GoVersion    string  `json:"go_version"`
	GOOS         string  `json:"goos"`
	GOARCH       string  `json:"goarch"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"num_cpu"`
	Workload     string  `json:"workload"`
	Unit         string  `json:"unit_of_work"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        int     `json:"trace"`
	Config       size    `json:"config"`
	Started      string  `json:"started"`
}

func newProvenance(cfg config, w *workload) (provenance, error) {
	sum, err := sourceDigest(cfg.root)
	if err != nil {
		return provenance{}, fmt.Errorf("hash sources: %w", err)
	}
	return provenance{
		Commit:       gitCommit(cfg.root),
		SourceSHA256: sum,
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Workload:     w.name,
		Unit:         w.unit,
		Seed:         cfg.seed,
		Seconds:      cfg.seconds,
		Trace:        cfg.trace,
		Config:       cfg.size,
		Started:      time.Now().UTC().Format(time.RFC3339),
	}, nil
}

// sourceDigest hashes every Go source and module file under root (hidden
// directories skipped), identifying the code even in a checkout that is
// not a git repository.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	parts := make([]any, 0, 2*len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, f)
		parts = append(parts, filepath.ToSlash(rel), string(data))
	}
	return digestOf(parts...), nil
}

// gitCommit reads HEAD from root/.git without running git; a checkout that
// is not a repository reports "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
