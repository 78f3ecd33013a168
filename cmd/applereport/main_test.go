package main

import (
	"bytes"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

var seed1 struct {
	once sync.Once
	out  string
	err  error
}

// seed1Report runs the full report at seed 1 once per test binary.
func seed1Report(t *testing.T) string {
	t.Helper()
	if raceDetector {
		t.Skip("the full report takes about 20 s under -race")
	}
	seed1.once.Do(func() {
		var b bytes.Buffer
		seed1.err = report(&b, 1)
		seed1.out = b.String()
	})
	if seed1.err != nil {
		t.Fatalf("report: %v", seed1.err)
	}
	return seed1.out
}

// table returns the cells of the markdown table under the section whose
// heading starts with "## "+title, header and separator rows excluded.
func table(t *testing.T, out, title string) [][]string {
	t.Helper()
	_, section, ok := strings.Cut(out, "\n## "+title)
	if !ok {
		t.Fatalf("no section %q in:\n%s", title, out)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var rows [][]string
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| ") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		rows = append(rows, cells)
	}
	if len(rows) < 2 {
		t.Fatalf("section %q has no table rows", title)
	}
	return rows[1:]
}

// column returns column i of rows.
func column(rows [][]string, i int) []string {
	out := make([]string, len(rows))
	for r, cells := range rows {
		out[r] = cells[i]
	}
	return out
}

// TestReportSeed1 pins the report's deterministic cells at seed 1, the
// numbers EXPERIMENTS.md quotes.
func TestReportSeed1(t *testing.T) {
	out := seed1Report(t)

	t.Run("TableV", func(t *testing.T) {
		// The 672-snapshot mean problem, whatever Figs 10–12 replay.
		rows := table(t, out, "Table V")
		for _, c := range []struct {
			col  int
			want []string
		}{
			{0, []string{"Internet2", "GEANT", "UNIV1", "AS-3679"}},
			{3, []string{"40", "60", "90", "300"}},
			{5, []string{"23", "38", "59", "60"}},
		} {
			if got := column(rows, c.col); !slices.Equal(got, c.want) {
				t.Errorf("column %d = %v, want %v", c.col, got, c.want)
			}
		}
	})

	t.Run("Fig5", func(t *testing.T) {
		rows := table(t, out, "Fig 5")
		if len(rows) != 10 || rows[0][0] != "1" || rows[9][0] != "10" {
			t.Fatalf("steps = %v, want 1 through 10", column(rows, 0))
		}
	})

	t.Run("Fig6", func(t *testing.T) {
		rows := table(t, out, "Fig 6")
		if len(rows) != 12 {
			t.Fatalf("%d rates, want 12", len(rows))
		}
		// No loss through the 12 kpps capacity, then the knee.
		for _, row := range rows[:8] {
			if row[1] != "0.0%" {
				t.Errorf("loss at %s pps = %s, want 0.0%%", row[0], row[1])
			}
		}
		if got := rows[7][0]; got != "12000" {
			t.Errorf("eighth rate = %s, want 12000", got)
		}
		for _, want := range [][]string{{"13000", "7.7%"}, {"28000", "57.1%"}} {
			if !slices.ContainsFunc(rows, func(row []string) bool { return slices.Equal(row, want) }) {
				t.Errorf("no row %v in %v", want, rows)
			}
		}
	})

	t.Run("Fig12", func(t *testing.T) {
		rows := table(t, out, "Fig 12")
		if got, want := column(rows, 4), []string{"8", "116", "56"}; !slices.Equal(got, want) {
			t.Errorf("peak extra cores = %v, want %v", got, want)
		}
		if got, want := column(rows, 5), []string{"0/0 of 16", "0/0 of 16", "0/0 of 16"}; !slices.Equal(got, want) {
			t.Errorf("refused windows = %v, want %v", got, want)
		}
	})
}

// timeCell matches Table V's wall-clock column, the one cell of the
// report that is not a function of the seed.
var timeCell = regexp.MustCompile(`\| \d+\.\d{3} s \| (\d+) \|\n`)

// TestReportDeterministic runs the report twice at one seed: apart from
// Table V's solve times, the outputs must match byte for byte.
func TestReportDeterministic(t *testing.T) {
	first := seed1Report(t)
	var b bytes.Buffer
	if err := report(&b, 1); err != nil {
		t.Fatalf("report: %v", err)
	}
	mask := func(s string) string { return timeCell.ReplaceAllString(s, "| TIME | $1 |\n") }
	if n := len(timeCell.FindAllString(first, -1)); n != 4 {
		t.Fatalf("masked %d Table V time cells, want 4", n)
	}
	if a, b := mask(first), mask(b.String()); a != b {
		t.Fatalf("two seed-1 reports differ:\n--- first\n%s\n--- second\n%s", a, b)
	}
}
