// Command perfbench is the repository benchmark. It runs one named
// workload through the entry points users call — the exp.Registry()
// runners exactly as `greendimm -experiment <id>` runs them, and
// greendimmd's HTTP API — for a fixed wall-clock window, checks every
// output, and prints each metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set in BENCHMARK.json;
// with --trace 1 the run is the separate traced mode, which attributes
// the workload's host time to the simulator and service layers and
// prints the per-layer set. Run it from the repository root through
// perfbench/run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload energy --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --selftest
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// parallelism is the sweep width of every simulation workload and the
// daemon's worker count. It is fixed, not taken from the machine, so that
// results from machines with more CPUs stay comparable.
const parallelism = 2

// workloads maps each workload to the registry experiment it regenerates;
// daemon has none.
var workloads = map[string]string{"energy": "fig9", "tail": "tail", "vmday": "fig12", "daemon": ""}

// metric is one named measurement; the unit travels with the value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run reports. The final JSON line carries the
// subset of Metrics that BENCHMARK.json lists for the mode; the table
// printed above it shows all of them.
type result struct {
	Attempted int
	Failed    int
	Metrics   map[string]metric
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// fail records one failed operation with its reason on standard error.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // self-test scale: one operation of each kind
	outDir   string // scratch and trace output, inside the checkout
}

func main() {
	start := time.Now()
	var (
		workload = flag.String("workload", "", "workload: energy, tail, vmday or daemon")
		seed     = flag.Int64("seed", 1, "workload seed; the program receives only inputs generated from it")
		seconds  = flag.Float64("seconds", 20, "measurement window in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced mode and prints the per-layer metrics")
		selftest = flag.Bool("selftest", false, "run every workload once at tiny size and check the benchmark itself")
		digests  = flag.Bool("write-digests", false, "print the report digests for the committed seeds as JSON and exit")
	)
	flag.Parse()
	outDir, err := filepath.Abs(filepath.Join(".bench_build", "run"))
	if err == nil {
		err = os.MkdirAll(outDir, 0o755)
	}
	if err != nil {
		fatal(err)
	}
	switch {
	case *selftest:
		if err := selfTest(outDir); err != nil {
			fatal(err)
		}
		fmt.Println("perfbench self-test passed")
		return
	case *digests:
		if err := writeDigests(); err != nil {
			fatal(err)
		}
		return
	}
	if _, ok := workloads[*workload]; !ok {
		fatal(fmt.Errorf("unknown workload %q (want energy, tail, vmday or daemon)", *workload))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: outDir}
	res, err := run(cfg, start)
	if err != nil {
		fatal(err)
	}
	if err := printResult(cfg, res); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes one invocation. start is when the process entered main,
// the origin of a simulation workload's set-up time.
func run(cfg config, start time.Time) (*result, error) {
	if cfg.trace {
		return runTraced(cfg)
	}
	if cfg.workload == "daemon" {
		return runDaemon(cfg)
	}
	return runSim(cfg, start)
}

// benchmarkFile is the part of BENCHMARK.json the program reads: the
// metric names and units each mode must report.
type benchmarkFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile() (benchmarkFile, error) {
	var f benchmarkFile
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return f, nil
}

// selectMetrics picks the metrics BENCHMARK.json lists for the mode,
// failing if the run did not measure one or measured it in another unit.
func selectMetrics(res *result, listed []benchMetric) (map[string]metric, error) {
	out := make(map[string]metric, len(listed))
	for _, m := range listed {
		v, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			return nil, fmt.Errorf("metric %s is listed in BENCHMARK.json but was not measured", m.Name)
		case v.Unit == "" || v.Unit != m.Unit:
			return nil, fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return nil, fmt.Errorf("metric %s is %v", m.Name, v.Value)
		}
		out[m.Name] = v
	}
	return out, nil
}

// printResult writes the table of every measured metric, the provenance
// line and, last, the JSON result line.
func printResult(cfg config, res *result) error {
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	listed := bf.EndToEnd
	mode := "end-to-end"
	if cfg.trace {
		listed, mode = bf.PerLayer, "traced"
	}
	final, err := selectMetrics(res, listed)
	if err != nil {
		return err
	}
	errRate := 0.0
	if res.Attempted > 0 {
		errRate = float64(res.Failed) / float64(res.Attempted)
	}
	res.set("error_rate", errRate, "fraction")
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "workload %s, seed %d, %s metrics:\n", cfg.workload, cfg.seed, mode)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(w, "  %-30s %16s %s\n", k, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	prov, err := json.Marshal(map[string]any{"provenance": provenance(cfg)})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(prov))
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0 && res.Attempted > 0, res.Attempted, res.Failed, final})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return w.Flush()
}

// provenance records what produced a result: the source revision (a git
// rev when the checkout is a repository, else a digest of the Go
// sources), the toolchain and host, and the run's knobs.
func provenance(cfg config) map[string]any {
	p := map[string]any{
		"go":          runtime.Version(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"seed":        cfg.seed,
		"parallelism": parallelism,
		"workload":    cfg.workload,
		"seconds":     cfg.seconds,
	}
	// Only a checkout that is itself a repository is asked, so git never
	// searches the directories above it.
	rev, dirty := "", false
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			rev = strings.TrimSpace(string(out))
			st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
			dirty = err != nil || len(st) > 0
		}
	}
	if rev == "" {
		rev = "src-" + sourceDigest()
	}
	p["rev"], p["dirty"] = rev, dirty
	return p
}

// sourceDigest hashes every Go source and module file under the working
// directory, skipping build output, so a result from a checkout without
// git history still names the code it measured.
func sourceDigest() string {
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return fmt.Sprintf("%x", h.Sum(nil))[:12]
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for an empty sample (a layer the workload never
// reaches); xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// seedMean is the mean over experiment seeds of each seed's median.
func seedMean(bySeed map[int64][]float64) float64 {
	total := 0.0
	for _, xs := range bySeed {
		total += quantile(xs, 0.5)
	}
	return total / float64(len(bySeed))
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// peakRSSMB returns the process's peak resident set in MB. Linux
// reports ru_maxrss in KiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

// totalAlloc reads the cumulative bytes the Go heap has allocated.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
