package bladerunner

import (
	"reflect"
	"slices"
	"testing"

	"bladerunner/internal/brass"
	"bladerunner/internal/core"
	"bladerunner/internal/device"
	"bladerunner/internal/durlog"
	"bladerunner/internal/faults"
	"bladerunner/internal/pylon"
	"bladerunner/internal/tao"
)

// TestSettingsCensus pins the settable values of the audited config
// surfaces (ROADMAP item 12). A value enters a config only when a non-test
// caller sets it to something other than what the code would pick itself,
// so adding or deleting a field means editing this list in the same change.
func TestSettingsCensus(t *testing.T) {
	census := []struct {
		typ    reflect.Type
		fields []string
	}{
		{reflect.TypeOf(pylon.Config{}), []string{"SubCacheSize", "Clock"}},
		{reflect.TypeOf(tao.Config{}), []string{"IndexShardCapacity"}},
		{reflect.TypeOf(device.Config{}), []string{"User", "Region", "POPs", "Backoff", "BackoffSeed", "Tracer"}},
		{reflect.TypeOf(durlog.Config{}), []string{"Clock", "HotBytes", "SegmentEntries", "Segments", "Retention", "CrashHook"}},
		{reflect.TypeOf(brass.HostConfig{}), []string{"ID", "Region", "StickyRouting", "Tracer",
			"LoopQueueDepth", "StreamDeliverRate", "StreamDeliverBurst", "Durlog"}},
		{reflect.TypeOf(core.Config{}), []string{"Regions", "BRASSHostsPerRegion", "ProxiesPerRegion", "POPs",
			"KVNodesPerRegion", "Graph", "TAO", "StickyRouting", "Overload", "Trace", "Durlog", "Geo"}},
		{reflect.TypeOf(core.OverloadConfig{}), []string{"LoopQueueDepth", "StreamDeliverRate", "StreamDeliverBurst"}},
		{reflect.TypeOf(faults.BackoffPolicy{}), []string{"Base", "Max", "Multiplier", "Jitter", "NoJitter"}},
	}
	for _, c := range census {
		var got []string
		for i := 0; i < c.typ.NumField(); i++ {
			if f := c.typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, c.fields) {
			t.Errorf("%v has settings %v, the census lists %v", c.typ, got, c.fields)
		}
	}
}
