package megadevice

import (
	"math"
	"testing"
	"time"
)

// TestDropRateIsFig10OverThePaperFleet reads the scenarios' per-device drop
// rate at the trough (07:00) and at the peak hour (19:00): the paper's 18M
// and 33M drops a minute over its 2 B devices. The curve's bounds are those
// quotients exactly; At reads the peak exactly and the trough within one
// ulp (the cosine's mid − amplitude rounds up).
func TestDropRateIsFig10OverThePaperFleet(t *testing.T) {
	const trough, peak = 18e6 / 2e9, 33e6 / 2e9
	d := dropsPerDeviceMinute
	if d.Min != trough || d.Max != peak {
		t.Errorf("drop curve bounds %v..%v, want %v..%v", d.Min, d.Max, trough, peak)
	}
	day := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	if got := d.At(day.Add(19 * time.Hour)); got != peak {
		t.Errorf("drop rate at the peak hour = %v, want %v", got, peak)
	}
	if got := d.At(day.Add(7 * time.Hour)); got != trough && got != math.Nextafter(trough, 1) {
		t.Errorf("drop rate at the trough = %v, want %v", got, trough)
	}
}
