package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},  // nested, holds a grandchild
		{Name: "a1", Start: 15, End: 25, Parent: 1}, // grandchild: not subtracted from op
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a by 10
		{Name: "c", Start: 90, End: 120, Parent: 0}, // sticks out of the parent by 20
		{Name: "d", Start: 50, End: 55, Parent: 0},  // inside b entirely
	}
	// op: children cover [10,60) and [90,100) = 60 of 100.
	want := []int64{40, 20, 10, 30, 30, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestAdoptRehangsReaderSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("phase", -1, 0)
	tr.end(root)
	reader := tr.fork()
	outer := reader.begin("burst", -1, 0)
	inner := reader.begin("controller.forward", outer, 0)
	reader.end(inner)
	reader.end(outer)
	tr.adopt(reader, root)
	if got := []int32{tr.spans[1].Parent, tr.spans[2].Parent}; got[0] != root || got[1] != 1 {
		t.Errorf("adopted parents = %v, want [%d 1]", got, root)
	}
}

func TestTailPercentNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 50}, {19, 50}, {20, 50}, {40, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10_000, 99.9}, {100_000, 99.99}} {
		if got := tailPercent(c.n); got != c.want {
			t.Errorf("tailPercent(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.N != 5 || s.P50 != 3 || s.P25 != 2 || s.P75 != 4 || s.TailPct != 50 || s.Tail != 3 {
		t.Errorf("summarize = %+v", s)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestDeclarationsFitTheContract(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not fit", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not fit", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

func TestBenchmarkJSONMatchesTheBinary(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Command, []string{"bash", "cmd/applebench/run.sh"}) || !reflect.DeepEqual(b.Paths, []string{"cmd/applebench"}) {
		t.Errorf("command %v, paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) || len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d/%d workloads/end-to-end/per-layer, the binary %d/%d/%d",
			len(b.Workloads), len(b.EndToEnd), len(b.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, binary has %q", i, b.Workloads[i], w.Name)
		}
	}
	for i, m := range endToEnd {
		if g := b.EndToEnd[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end_to_end %d: %+v, binary has %+v", i, g, m)
		}
	}
	for i, m := range perLayer {
		if g := b.PerLayer[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per_layer %d: %+v, binary has %+v", i, g, m)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at a hundredth of its size,
// untraced and traced, and checks what the driver will check: no failed
// operation, every declared metric printed and nothing else, end-to-end
// metrics never zero.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 1, seconds: 0.4, scale: 0.01, trace: traced, outDir: t.TempDir()}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d checks failed: %v", w.Name, traced, rep.failed, rep.attempted, rep.notes)
			}
			for _, m := range endToEnd {
				if v, ok := rep.endToEnd[m.Name]; !ok || v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v", w.Name, m.Name, v)
				}
			}
			if !traced {
				continue
			}
			declared := make(map[string]bool)
			for _, m := range perLayer {
				declared[m.Name] = true
			}
			for name := range rep.perLayer {
				if !declared[name] {
					t.Errorf("%s produced undeclared per-layer metric %s", w.Name, name)
				}
			}
			if got := len(rep.result(true).Metrics); got != len(perLayer) {
				t.Errorf("%s: traced result has %d metrics, want %d", w.Name, got, len(perLayer))
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, "spans-"+w.Name+".jsonl")); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
		}
	}
}

// TestDiurnalAllocationIgnoresRunLength: diurnal_reopt's days do not all
// allocate the same, so its gated allocation metric must come from the
// same days however many the run gets through.
func TestDiurnalAllocationIgnoresRunLength(t *testing.T) {
	var got [2]float64
	for i, seconds := range []float64{0.02, 0.6} {
		rep, err := run(config{workload: "diurnal_reopt", seed: 1, seconds: seconds, scale: 0.01, outDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		got[i] = rep.endToEnd["alloc_mb_per_kop"]
	}
	if d := got[0]/got[1] - 1; d < -0.002 || d > 0.002 {
		t.Errorf("alloc_mb_per_kop %v in a short run, %v in a long one", got[0], got[1])
	}
}

// TestBinaryLeavesNoProcess builds the binary, runs it the way the driver
// does and checks that it exits 0, ends its output with the result object,
// and that no process started from its directory survives it.
func TestBinaryLeavesNoProcess(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "applebench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	runBin := func(args ...string) (string, int) {
		cmd := exec.Command(bin, args...)
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		done := make(chan error, 1)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		go func() { done <- cmd.Wait() }()
		select {
		case <-done:
		case <-time.After(2 * time.Minute):
			_ = cmd.Process.Kill()
			t.Fatalf("%v did not exit", args)
		}
		return stdout.String(), cmd.ProcessState.ExitCode()
	}

	out, code := runBin("--workload", "fattree_mixed", "--seed", "3", "--seconds", "1", "--trace", "0", "--scale", "0.01", "--out", dir)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a JSON object: %v", err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[key]; !ok {
			t.Errorf("result lacks %q", key)
		}
	}
	if len(res) != 4 {
		t.Errorf("result has %d keys, want exactly 4", len(res))
	}
	if _, code := runBin("-h"); code != 0 {
		t.Errorf("-h exited %d", code)
	}
	if _, code := runBin("--no-such-flag"); code != 2 {
		t.Errorf("bad flag exited %d, want 2", code)
	}
	if _, code := runBin("--workload", "nope"); code != 2 {
		t.Errorf("unknown workload exited %d, want 2", code)
	}

	procs, err := filepath.Glob("/proc/[0-9]*/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range procs {
		if b, err := os.ReadFile(p); err == nil && bytes.Contains(b, []byte(dir)) {
			t.Errorf("process left running: %s: %q", p, b)
		}
	}
}
