package eternal_test

import (
	"strings"
	"testing"

	"eternal/internal/scenario"
)

// runScenario executes one registered chaos scenario and fails the
// test, naming the command that replays it, on any oracle violation.
func runScenario(t *testing.T, sc scenario.Scenario) {
	t.Helper()
	res, err := scenario.Run(sc, scenario.Config{Logf: t.Logf})
	if err != nil {
		t.Fatalf("scenario %s seed %d: %v", sc.Name, sc.Seed, err)
	}
	if !res.Pass {
		tags := ""
		if sc.Soak {
			tags = "-tags soak "
		}
		t.Fatalf("scenario %s FAILED at seed %d — replay with go test %s-run '%s' . (the schedule is a pure function of the registered seed):\n%s",
			sc.Name, res.Seed, tags, t.Name(), strings.Join(res.Failures, "\n"))
	}
}

// TestChaosScenarios runs the quick tier of the chaos suite: every
// registered scenario not marked Soak. Under -short only the scenarios
// marked Short run; the Soak tier lives in scenario_soak_test.go
// behind the `soak` build tag (the dedicated chaos CI job).
func TestChaosScenarios(t *testing.T) {
	for _, sc := range scenario.All() {
		if sc.Soak {
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			if testing.Short() && !sc.Short {
				t.Skipf("quick-tier scenario %s skipped under -short", sc.Name)
			}
			runScenario(t, sc)
		})
	}
}
