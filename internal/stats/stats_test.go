package stats

import (
	"strings"
	"testing"
	"time"
)

func TestTable(t *testing.T) {
	tab := NewTable("Fig X", "|S|", "Tq(R-tree)", "Tq(PV)")
	tab.AddRow(20000, 12*time.Millisecond, 7.5)
	tab.AddRow(40000, 15*time.Millisecond, 9.25)
	out := tab.String()
	if !strings.Contains(out, "Fig X") || !strings.Contains(out, "12.000ms") || !strings.Contains(out, "9.250") {
		t.Fatalf("table rendering:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}
