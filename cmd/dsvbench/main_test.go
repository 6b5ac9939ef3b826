package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunAll runs every experiment at a tiny scale and checks each
// section of the evaluation is printed.
func TestRunAll(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "all", "-scale", "0.02", "-points", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, header := range []string{
		"== Table 4", "== Theorem 1", "== Footnote 7",
		"Figure 10 (MSR, natural) — datasharing", "Figure 11 (MSR, compressed)",
		"Figure 12 (MSR, compressed ER)", "Figure 13 (BMR, natural)",
	} {
		if !strings.Contains(out.String(), header) {
			t.Errorf("no %q section in:\n%s", header, out.String())
		}
	}
}

// TestRunRejects checks an unknown experiment and an unknown flag are
// errors, -ilp among them: the figures have no OPT line.
func TestRunRejects(t *testing.T) {
	for _, args := range [][]string{{"-exp", "nope"}, {"-ilp"}, {"-ilpnodes", "10"}} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("dsvbench %v: no error", args)
		}
	}
}
