package schedcheck_test

import (
	"testing"

	"asap/internal/analysis/analysistest"
	"asap/internal/analysis/schedcheck"
)

// TestSchedcheckConverted: appends to the engine's queue slices outside
// the sim package are flagged; scheduling calls and appends to other
// slices pass.
func TestSchedcheckConverted(t *testing.T) {
	analysistest.Run(t, schedcheck.New(), "asap/internal/machine", "testdata/sched")
}

// TestSchedcheckSimExempt: the engine appends to its own queue.
func TestSchedcheckSimExempt(t *testing.T) {
	analysistest.Run(t, schedcheck.New(), "asap/internal/sim", "testdata/sim")
}
