package core

import (
	"testing"

	"repro/internal/logicbist"
)

// TestControllerTestabilityTable1 pins the §3 logic-BIST result for
// every Table 1 method (1K words, bit-oriented, controller only): the
// single stuck-at fault count and the faults detected after 256 and
// 4,096 full-scan random patterns (seed 1). The 256-pattern figure is
// read off the 4,096-pattern coverage curve, which is the same run's
// prefix. Scan-only microcode storage enumerates and detects exactly
// what full-scan storage does, because the model treats every
// flip-flop as full scan (EXPERIMENTS.md X18).
func TestControllerTestabilityTable1(t *testing.T) {
	want := map[string]struct{ faults, at256, at4096 int }{
		"Microcode-Based": {1584, 1531, 1570},
		"Prog. FSM-Based": {1304, 1285, 1303},
		"March C":         {198, 198, 198},
		"March C+":        {420, 385, 410},
		"March C++":       {624, 604, 613},
		"March A":         {310, 310, 310},
		"March A+":        {488, 475, 478},
		"March A++":       {724, 704, 711},
	}
	grade := func(m Method, scanOnly bool) *logicbist.Result {
		t.Helper()
		nl, err := m.build(BitOriented, false, scanOnly)
		if err != nil {
			t.Fatal(err)
		}
		res, err := logicbist.RandomPatternCoverage(nl, 4096, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, m := range Methods() {
		w, ok := want[m.Name]
		if !ok {
			t.Fatalf("no pinned testability for %s", m.Name)
		}
		res := grade(m, false)
		at256 := res.CumulativeDetected[255]
		t.Logf("%-16s %5d faults  256: %.1f%%  4096: %.1f%%", m.Name, res.Faults,
			100*float64(at256)/float64(res.Faults), 100*res.Coverage())
		if res.Faults != w.faults || at256 != w.at256 || res.Detected != w.at4096 {
			t.Errorf("%s: %d faults, %d detected at 256, %d at 4096; want %d, %d, %d",
				m.Name, res.Faults, at256, res.Detected, w.faults, w.at256, w.at4096)
		}
		if m.scanOnlyCapable {
			scan := grade(m, true)
			if scan.Faults != res.Faults || scan.Detected != res.Detected {
				t.Errorf("%s scan-only: %s; full-scan: %s", m.Name, scan, res)
			}
		}
	}
}
