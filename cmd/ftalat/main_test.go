package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseFreqs(t *testing.T) {
	got, err := parseFreqs("1200,2400")
	if err != nil || len(got) != 2 {
		t.Fatalf("parseFreqs = %v, %v", got, err)
	}
	if _, err := parseFreqs("1200"); err == nil {
		t.Error("single clock accepted")
	}
	if _, err := parseFreqs("x,y"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-repeats", "8", "1200,2400"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "FTaLaT") || !strings.Contains(text, "1200→2400 MHz") {
		t.Fatalf("output:\n%s", text)
	}
	if !strings.Contains(text, "latency [µs]") {
		t.Fatalf("missing latency lines:\n%s", text)
	}
}

func TestRunValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Error("missing clock list accepted")
	}
	if err := run([]string{"1200,1200"}, &out); err == nil {
		t.Error("duplicate clocks accepted (core rejects non-ascending)")
	}
	if err := run([]string{"-repeats", "-3", "1200,2400"}, &out); err == nil {
		t.Errorf("negative -repeats accepted; output:\n%s", out.String())
	}
}
