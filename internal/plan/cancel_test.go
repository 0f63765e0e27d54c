package plan

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

// bigDoc builds a flat document with n <item> elements so scans have
// enough candidates to cross many cancellation checkpoints.
func bigDoc(t *testing.T, n int) *index.Index {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "<item><name>item %d alpha beta</name><price>%d</price></item>", i, i%100)
	}
	sb.WriteString("</root>")
	doc, err := xmldoc.ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return index.Build(doc, text.Pipeline{})
}

func TestExecuteContextCancelled(t *testing.T) {
	ix := bigDoc(t, 2000)
	q, err := tpq.Parse(`//item[./name[. ftcontains "alpha"]]`)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p, err := BuildWith(ix, q, nil, 5, Options{Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}

			// Pre-cancelled context: no work at all.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			answers, err := p.ExecuteContext(ctx)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
			}
			if answers != nil {
				t.Fatalf("pre-cancelled: got %d answers, want none", len(answers))
			}

			// Already-expired deadline: plan aborts even though the
			// context's timer may never have fired (clock-based check).
			dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
			defer dcancel()
			answers, err = p.ExecuteContext(dctx)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("expired deadline: err = %v, want context.DeadlineExceeded", err)
			}
			if answers != nil {
				t.Fatalf("expired deadline: got %d answers, want none", len(answers))
			}

			// The same plan still executes fully under a live context:
			// Reset clears the latched abort.
			answers, err = p.ExecuteContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(answers) != 5 {
				t.Fatalf("after abort, fresh execution returned %d answers, want 5", len(answers))
			}
		})
	}
}
