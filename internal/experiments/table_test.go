package experiments

import (
	"testing"
	"time"
)

func TestThroughput(t *testing.T) {
	if got := Throughput(1000, time.Second); got != 1000 {
		t.Errorf("tps = %f", got)
	}
	if got := Throughput(500, 250*time.Millisecond); got != 2000 {
		t.Errorf("tps = %f", got)
	}
	if Throughput(5, 0) != 0 {
		t.Error("zero elapsed should give 0")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{Header: []string{"block size", "sw tps", "bmac tps"}}
	tbl.AddRow("100", "3,900", "10,700")
	tbl.AddRow("250", "5,600", "38,400")
	want := "" +
		"block size  sw tps  bmac tps\n" +
		"----------  ------  --------\n" +
		"100         3,900   10,700  \n" +
		"250         5,600   38,400  \n"
	if got := tbl.String(); got != want {
		t.Errorf("table output:\n%s\nwant:\n%s", got, want)
	}
	// A note renders after the rows, set off by a blank line, with its
	// trailing newlines trimmed to one.
	tbl.AddNote("budget: %d stages\nsecond line\n\n", 3)
	if got := tbl.String(); got != want+"\nbudget: 3 stages\nsecond line\n" {
		t.Errorf("table with note:\n%s", got)
	}
}

func TestFormatTPS(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{999, "999"},
		{1000, "1,000"},
		{38400, "38,400"},
		{68900.4, "68,900"},
		{1234567, "1,234,567"},
	}
	for _, tt := range tests {
		if got := FormatTPS(tt.in); got != tt.want {
			t.Errorf("FormatTPS(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}
