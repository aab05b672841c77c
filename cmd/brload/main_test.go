package main

import (
	"flag"
	"testing"
)

func TestLiveSizingKeepsOnlyFlagsThatWereSet(t *testing.T) {
	for _, tc := range []struct {
		args                   []string
		wantDevices, wantAreas int
	}{
		{nil, 0, 0},
		{[]string{"-devices", "500"}, 500, 0},
		{[]string{"-areas", "20"}, 0, 20},
		{[]string{"-devices", "1000000", "-areas", "1000"}, 1_000_000, 1000}, // set to the defaults: kept
		{[]string{"-net", "tcp"}, 0, 0},
	} {
		fs := flag.NewFlagSet("brload", flag.ContinueOnError)
		devices := fs.Int("devices", 1_000_000, "")
		areas := fs.Int("areas", 1000, "")
		fs.String("net", "", "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		d, a := liveSizing(fs, *devices, *areas)
		if d != tc.wantDevices || a != tc.wantAreas {
			t.Errorf("%q: liveSizing = %d devices, %d areas; want %d, %d",
				tc.args, d, a, tc.wantDevices, tc.wantAreas)
		}
	}
}
