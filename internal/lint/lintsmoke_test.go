package lint_test

import (
	"testing"

	"fastsc/internal/lint"
	"fastsc/internal/lint/linttest"
)

// TestLintSmokeFixtureFails pins the seeded violations in the lintsmoke
// fixture — the package CI's lint-smoke step feeds to the real fastscvet
// binary expecting a nonzero exit — at one finding each from maporder,
// hotalloc and poolpair. If a suite change ever stops flagging one of
// them, this test fails offline before CI's self-test would.
func TestLintSmokeFixtureFails(t *testing.T) {
	res := linttest.Run(t, "lintsmoke", lint.Analyzers()...)
	got := map[string]int{}
	for _, d := range res.Diagnostics {
		got[d.Analyzer]++
	}
	for _, name := range []string{"maporder", "hotalloc", "poolpair"} {
		if got[name] != 1 {
			t.Errorf("lintsmoke fixture produced %d %s findings, want 1", got[name], name)
		}
	}
	if len(res.Suppressed) != 0 {
		t.Errorf("lintsmoke fixture honored %d suppressions, want 0", len(res.Suppressed))
	}
}

func TestSuiteShape(t *testing.T) {
	as := lint.Analyzers()
	if len(as) != 5 {
		t.Fatalf("suite has %d analyzers, want 5", len(as))
	}
	seen := map[string]bool{}
	for _, a := range as {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc or run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
