package main

import (
	"slices"
	"testing"
)

func TestParseSize(t *testing.T) {
	cases := []struct {
		in      string
		want    int64
		wantErr bool
	}{
		{"", 0, false},
		{"512", 512, false},
		{"64M", 64 << 20, false},
		{"2g", 2 << 30, false},
		{" 1 K ", 1 << 10, false},
		{"17179869184G", 0, true}, // 2³⁴ × 2³⁰ = 2⁶⁴ wraps to 0
		{"8589934592G", 0, true},  // 2³³ × 2³⁰ = 2⁶³ wraps negative
		{"-1M", 0, true},
		{"1.5G", 0, true},
		{"M", 0, true},
	}
	for _, c := range cases {
		got, err := parseSize(c.in)
		if (err != nil) != c.wantErr || got != c.want {
			t.Errorf("parseSize(%q) = %d, %v; want %d, error %v", c.in, got, err, c.want, c.wantErr)
		}
	}
}

func TestSplitPaths(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"a.fastq", []string{"a.fastq"}},
		{"a.fastq.gz,b.fastq", []string{"a.fastq.gz", "b.fastq"}},
		{" a , ,b ,", []string{"a", "b"}},
	}
	for _, c := range cases {
		if got := splitPaths(c.in); !slices.Equal(got, c.want) {
			t.Errorf("splitPaths(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
