package experiments

import (
	"strings"
	"testing"

	"repro/internal/plan"
)

func TestRunFig6Quick(t *testing.T) {
	rows := RunFig6(Fig6Config{
		Seed:   42,
		Sizes:  []int{64 * 1024, 128 * 1024},
		MaxKOR: 2,
		Trials: 1,
	})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Time <= 0 {
			t.Errorf("non-positive time: %+v", r)
		}
		if r.Answers == 0 {
			t.Errorf("no answers: %+v", r)
		}
	}
	out := FormatFig6(rows)
	for _, frag := range []string{"64K", "128K", "#KORs=1"} {
		if !strings.Contains(out, frag) {
			t.Errorf("format missing %q:\n%s", frag, out)
		}
	}
}

func TestRunFig7Quick(t *testing.T) {
	rows := RunFig7(Fig7Config{
		Seed:      42,
		SizeBytes: 256 * 1024,
		MaxKOR:    2,
		Trials:    1,
	})
	if len(rows) != len(plan.Strategies)*2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// All plans agree on the answer count (they compute the same top-k).
	byKORs := map[int]int{}
	for _, r := range rows {
		if prev, ok := byKORs[r.NumKORs]; ok && prev != r.Answers {
			t.Errorf("plans disagree on answers for kors=%d: %d vs %d",
				r.NumKORs, prev, r.Answers)
		}
		byKORs[r.NumKORs] = r.Answers
	}
	out := FormatFig7(rows)
	for _, frag := range []string{"NtpkP", "PtpkP", "S-ILtpkP"} {
		if !strings.Contains(out, frag) {
			t.Errorf("format missing %q:\n%s", frag, out)
		}
	}
}

func TestPushPrunesAtScale(t *testing.T) {
	rows := RunFig7(Fig7Config{
		Seed:      42,
		SizeBytes: 512 * 1024,
		MaxKOR:    4,
		Trials:    1,
	})
	var naive, push Fig7Row
	for _, r := range rows {
		if r.NumKORs != 4 {
			continue
		}
		switch r.Strategy {
		case plan.Naive:
			naive = r
		case plan.Push:
			push = r
		}
	}
	if push.Pruned <= naive.Pruned {
		t.Errorf("push pruned %d, naive %d: pushing must prune more",
			push.Pruned, naive.Pruned)
	}
}

func TestRunAblations(t *testing.T) {
	rows := RunAblations(42, 128*1024, 5, 1)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Name] = true
		if r.Time <= 0 {
			t.Errorf("bad time: %+v", r)
		}
	}
	for _, want := range []string{"push/kor-best-first", "push/kor-worst-first", "push/plain", "push/access-scan", "push/access-twigjoin"} {
		if !names[want] {
			t.Errorf("missing ablation %q", want)
		}
	}
	out := FormatAblations(rows)
	if !strings.Contains(out, "push/access-twigjoin") {
		t.Errorf("format output:\n%s", out)
	}
}
