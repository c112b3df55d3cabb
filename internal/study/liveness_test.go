package study

import (
	"strings"
	"testing"

	"multiflip/internal/vm"
)

// TestLivenessPredictionTable pins the predicted-vs-executed artifact: on
// real workloads the mismatch column is always 0 (every statically
// predicted record equals the executed one field-for-field), and — with
// the tier enabled — at least one row actually predicts something, so
// the table is not vacuously sound.
func TestLivenessPredictionTable(t *testing.T) {
	tb, err := LivenessPredictionTable([]string{"qsort", "CRC32"}, 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 { // 2 programs x 2 techniques
		t.Fatalf("got %d rows, want 4", len(tb.Rows))
	}
	predictedAny := false
	for _, row := range tb.Rows {
		if len(row) != 6 {
			t.Fatalf("row %v has %d cells, want 6", row, len(row))
		}
		predicted, benign, mismatches := row[2], row[4], row[5]
		if mismatches != "0" {
			t.Errorf("%s/%s: %s predicted records disagree with execution", row[0], row[1], mismatches)
		}
		if predicted != benign {
			t.Errorf("%s/%s: predicted %s but only %s executed Benign", row[0], row[1], predicted, benign)
		}
		if predicted != "0" {
			predictedAny = true
		}
	}
	if !vm.EnvDisabled().Has(vm.TierLiveness) && !predictedAny {
		t.Error("liveness tier is enabled but no row predicted a single experiment")
	}
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Static liveness pruning") {
		t.Error("rendered table is missing its title")
	}
}
