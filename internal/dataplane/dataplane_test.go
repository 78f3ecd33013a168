package dataplane

import (
	"math"
	"testing"
	"time"

	"github.com/apple-nfv/apple/internal/metrics"
	"github.com/apple-nfv/apple/internal/sim"
)

func TestMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(0); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := NewSource(-1); err == nil {
		t.Error("negative rate should fail")
	}
	s, err := NewSource(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetRate(-5); err == nil {
		t.Error("negative SetRate should fail")
	}
	if s.Rate() != 100 {
		t.Error("rate lost")
	}
}

func TestMonitorForwardsUpToCapacity(t *testing.T) {
	m, err := NewMonitor(1000)
	if err != nil {
		t.Fatal(err)
	}
	// 100 pps capacity per window (1000 × 0.1s).
	if got := m.Offer(0, 50); got != 50 {
		t.Fatalf("under capacity: %v", got)
	}
	if got := m.Offer(0, 500); got != 100 {
		t.Fatalf("over capacity: %v, want 100", got)
	}
	m.SetEnabled(false)
	if got := m.Offer(0, 10); got != 0 {
		t.Fatalf("disabled monitor forwarded %v", got)
	}
}

func TestRunLinkValidation(t *testing.T) {
	if _, _, err := RunLink(nil, nil, nil, time.Second, nil); err == nil {
		t.Error("nil inputs should fail")
	}
}

func TestRunLinkLossAccounting(t *testing.T) {
	clock := sim.New()
	src, err := NewSource(2 * MonitorCapacityPPS)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(MonitorCapacityPPS)
	if err != nil {
		t.Fatal(err)
	}
	series, loss, err := RunLink(clock, src, []*Monitor{mon}, 2*time.Second,
		func(time.Duration) []float64 { return []float64{1} })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-0.5) > 0.01 {
		t.Fatalf("loss at 2× capacity = %v, want ≈0.5", loss)
	}
	if series.Len() == 0 {
		t.Fatal("no samples recorded")
	}
}

// TestFig6CurveShape: zero loss below the knee, monotone rising loss
// past it — the Fig 6 shape.
func TestFig6CurveShape(t *testing.T) {
	rates := []float64{1000, 4000, 8000, 11000, 12000, 14000, 20000, 30000}
	points, err := OverloadCurve(rates, time.Second)
	if err != nil {
		t.Fatalf("OverloadCurve: %v", err)
	}
	if len(points) != len(rates) {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.RatePPS <= MonitorCapacityPPS && p.LossRate > 0.01 {
			t.Fatalf("loss %v below the knee at %v pps", p.LossRate, p.RatePPS)
		}
	}
	prev := -1.0
	for _, p := range points {
		if p.LossRate < prev-1e-9 {
			t.Fatalf("loss not monotone: %v after %v", p.LossRate, prev)
		}
		prev = p.LossRate
	}
	last := points[len(points)-1]
	if last.LossRate < 0.5 {
		t.Fatalf("loss at 2.5× capacity = %v, should soar", last.LossRate)
	}
	if _, err := OverloadCurve(nil, time.Second); err == nil {
		t.Fatal("no rates should fail")
	}
}

// seriesMax is the largest value of a non-empty series.
func seriesMax(s *metrics.TimeSeries) float64 {
	m := math.Inf(-1)
	for i := 0; i < s.Len(); i++ {
		_, v := s.Point(i)
		m = math.Max(m, v)
	}
	return m
}

// TestFig7SetupTimeGap: the throughput gap approximates the orchestrated
// boot time, which lands in the measured 3.9–4.6 s window.
func TestFig7SetupTimeGap(t *testing.T) {
	res, err := SetupTimeExperiment(5000, 2*time.Second, 10*time.Second, 1)
	if err != nil {
		t.Fatalf("SetupTimeExperiment: %v", err)
	}
	if res.BootTime < 3900*time.Millisecond || res.BootTime > 4600*time.Millisecond {
		t.Fatalf("boot = %v, want within [3.9s,4.6s]", res.BootTime)
	}
	// The measured gap approximates boot minus the rule-install lead,
	// within a window of quantization.
	diff := res.Gap - res.BootTime
	if diff < -500*time.Millisecond || diff > 500*time.Millisecond {
		t.Fatalf("gap %v vs boot %v: approximation too loose", res.Gap, res.BootTime)
	}
	// Throughput must drop to zero somewhere and recover to full rate.
	if maxT := seriesMax(res.Throughput); maxT < 4900 {
		t.Fatalf("max throughput %v, want ≈5000", maxT)
	}
	sawZero := false
	for i := 0; i < res.Throughput.Len(); i++ {
		if _, v := res.Throughput.Point(i); v == 0 {
			sawZero = true
		}
	}
	if !sawZero {
		t.Fatal("throughput never dropped to zero during failover")
	}
}

// TestFig7RunsVaryLikeThePaper: across 10 seeds, boot times range within
// [3.9, 4.6] s and average near 4.2 s (§VIII-B).
func TestFig7RunsVaryLikeThePaper(t *testing.T) {
	var boots []float64
	for seed := int64(0); seed < 10; seed++ {
		res, err := SetupTimeExperiment(5000, 2*time.Second, 10*time.Second, seed)
		if err != nil {
			t.Fatal(err)
		}
		boots = append(boots, res.BootTime.Seconds())
	}
	s, err := metrics.Summarize(boots)
	if err != nil {
		t.Fatal(err)
	}
	if s.Min < 3.9 || s.Max > 4.6 {
		t.Fatalf("boot range [%v,%v] outside the measured window", s.Min, s.Max)
	}
	if s.Mean < 4.0 || s.Mean > 4.45 {
		t.Fatalf("mean boot %v, want ≈4.2", s.Mean)
	}
}

// TestFig8ScenariosOverlap: no-failover, wait-5s, and reconfigure have
// statistically indistinguishable transfer times, while the naive
// strawman pays the boot outage.
func TestFig8ScenariosOverlap(t *testing.T) {
	cfg := TransferConfig{Seed: 42}
	means := map[TransferScenario]float64{}
	for _, sc := range []TransferScenario{
		ScenarioNoFailover, ScenarioWaitFiveSeconds, ScenarioReconfigure, ScenarioNaive,
	} {
		times, err := TransferTimes(sc, cfg)
		if err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
		if len(times) != 10 {
			t.Fatalf("%v: %d runs, want 10", sc, len(times))
		}
		s, err := metrics.Summarize(times)
		if err != nil {
			t.Fatal(err)
		}
		means[sc] = s.Mean
	}
	base := means[ScenarioNoFailover]
	for _, sc := range []TransferScenario{ScenarioWaitFiveSeconds, ScenarioReconfigure} {
		if r := means[sc] / base; r < 0.9 || r > 1.1 {
			t.Fatalf("%v mean %v deviates from no-failover %v", sc, means[sc], base)
		}
	}
	if means[ScenarioNaive] < base+3 {
		t.Fatalf("naive mean %v should pay ≈4s over %v", means[ScenarioNaive], base)
	}
}

// TestFig8TransferScale: without an outage a run moves the paper's 20 MB
// over the 300 Mbps bottleneck after a twelve-RTT slow start at 2 ms, so
// the ten runs average 20 MiB / 37.5 MB/s + 24 ms ≈ 0.583 s, give or take
// the 3 % jitter.
func TestFig8TransferScale(t *testing.T) {
	times, err := TransferTimes(ScenarioNoFailover, TransferConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	s, err := metrics.Summarize(times)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(20<<20)/(300e6/8) + 12*0.002
	if s.N != 10 || math.Abs(s.Mean/want-1) > 0.04 {
		t.Fatalf("%d runs averaging %.4f s, want 10 around %.4f s", s.N, s.Mean, want)
	}
}

func TestFig8Validation(t *testing.T) {
	if _, err := TransferTimes(TransferScenario(99), TransferConfig{}); err == nil {
		t.Error("unknown scenario should fail")
	}
	if ScenarioReconfigure.String() == "" || TransferScenario(99).String() == "" {
		t.Error("scenario names should render")
	}
}

// TestFig9ZeroLossTimeline: the full soar/detect/split/rollback cycle
// completes with zero packet loss, as §VIII-E reports.
func TestFig9ZeroLossTimeline(t *testing.T) {
	res, err := DetectionExperiment(1000, 10000, 3*time.Second, 8*time.Second, 12*time.Second)
	if err != nil {
		t.Fatalf("DetectionExperiment: %v", err)
	}
	if res.TotalLoss != 0 {
		t.Fatalf("loss = %v, want 0%%", res.TotalLoss)
	}
	// The event log tells the Fig 9 story in order.
	var names []string
	for _, e := range res.Events {
		names = append(names, e.What)
	}
	want := []string{
		"source rate soars",
		"overload detected; configuring second monitor",
		"second monitor active; traffic split",
		"source rate falls back",
		"rollback to normal state",
	}
	if len(names) != len(want) {
		t.Fatalf("events = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("event %d = %q, want %q", i, names[i], want[i])
		}
	}
	// Detection is immediate (within a window or two of the soar), and
	// the second monitor activates ~100 ms later (30 ms + 70 ms).
	soar, detect, active := res.Events[0].At, res.Events[1].At, res.Events[2].At
	if detect-soar > 300*time.Millisecond {
		t.Fatalf("detection lag %v, want immediate", detect-soar)
	}
	if d := active - detect; d < 100*time.Millisecond || d > 300*time.Millisecond {
		t.Fatalf("activation lag %v, want ≈100ms", d)
	}
	// While split, monitor B carries half the load.
	if maxB := seriesMax(res.MonBRate); math.Abs(maxB-5000) > 100 {
		t.Fatalf("monitor B peak %v, want ≈5000", maxB)
	}
}

func TestFig9Validation(t *testing.T) {
	if _, err := DetectionExperiment(0, 10, time.Second, 2*time.Second, 3*time.Second); err == nil {
		t.Error("zero low rate should fail")
	}
	if _, err := DetectionExperiment(10, 5, time.Second, 2*time.Second, 3*time.Second); err == nil {
		t.Error("high ≤ low should fail")
	}
}
