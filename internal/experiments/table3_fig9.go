package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"bladerunner/internal/metrics"
)

// Table3 regenerates the sub-operation latency table by driving sampled
// updates through the component models and measuring each stage (plus the
// subscription-registration path), exactly as the paper's 0.1% sampling
// did.
func Table3(seed int64, samples int) Result {
	rng := rand.New(rand.NewSource(seed))
	m := DefaultLatencies()

	wasLVC := metrics.NewHistogram[time.Duration]()
	wasOther := metrics.NewHistogram[time.Duration]()
	pylonSmall := metrics.NewHistogram[time.Duration]() // <10k subscribers
	pylonLarge := metrics.NewHistogram[time.Duration]() // >=10k subscribers
	brassHist := metrics.NewHistogram[time.Duration]()
	brassWASQ := metrics.NewHistogram[time.Duration]()
	subReg := metrics.NewHistogram[time.Duration]()
	subNAEU := metrics.NewHistogram[time.Duration]()
	subAll := metrics.NewHistogram[time.Duration]()

	for i := 0; i < samples; i++ {
		wasLVC.Observe(m.WASRanking.Sample(rng) + m.WASBase.Sample(rng))
		wasOther.Observe(m.WASBaseOther.Sample(rng))
		pylonSmall.Observe(m.PylonFanout.Sample(rng))
		pylonLarge.Observe(m.PylonFanout.Sample(rng) + m.PylonPerSubscriber)
		q := m.BRASSQueryWAS.Sample(rng)
		brassWASQ.Observe(q)
		brassHist.Observe(q + m.BRASSProcess.Sample(rng))
		subReg.Observe(m.SubscribeRegister.Sample(rng))
		subNAEU.Observe(m.MobileSubscribeNAEU.Sample(rng))
		subAll.Observe(m.MobileSubscribeAll.Sample(rng))
	}

	ms := func(d time.Duration) string { return fmt.Sprintf("%dms", d.Milliseconds()) }
	r := Result{ID: "table3", Title: "Latency of Bladerunner sub-operations (means)"}
	r.AddRow("WAS update -> publish (LVC)", "2000ms", ms(wasLVC.Mean()),
		fmt.Sprintf("ranking dominates; 1790ms of the total"))
	r.AddRow("WAS update -> publish (other)", "240ms", ms(wasOther.Mean()), "")
	r.AddRow("Pylon publish -> BRASSes (<10k subs)", "100ms", ms(pylonSmall.Mean()),
		fmt.Sprintf("p90=%s p99=%s (paper: 160ms/310ms)", ms(pylonSmall.Percentile(90)), ms(pylonSmall.Percentile(99))))
	r.AddRow("Pylon publish -> BRASSes (>=10k subs)", "109ms", ms(pylonLarge.Mean()), "")
	r.AddRow("BRASS update -> device send", "76ms", ms(brassHist.Mean()),
		fmt.Sprintf("WAS query portion %s (paper: 60ms)", ms(brassWASQ.Mean())))
	r.AddRow("subscription -> replicated on Pylon", "73ms", ms(subReg.Mean()), "backend only")
	r.AddRow("device subscribe (NA+EU)", "490ms", ms(subNAEU.Mean()),
		fmt.Sprintf("p90=%s (paper: 540ms)", ms(subNAEU.Percentile(90))))
	r.AddRow("device subscribe (all countries)", "970ms", ms(subAll.Mean()),
		fmt.Sprintf("p90=%s (paper: 1360ms)", ms(subAll.Percentile(90))))
	return r
}

// Figure9 regenerates the per-component latency CDFs for TypingIndicator
// and LiveVideoComments: edge→WAS publish, BRASS host processing,
// BRASS→device push, and the end-to-end total.
func Figure9(seed int64, samples int) Result {
	rng := rand.New(rand.NewSource(seed))
	m := DefaultLatencies()
	stream := DefaultStreamModels()

	hists := map[string]*metrics.Histogram[time.Duration]{}
	for _, name := range []string{
		"publish-ti", "publish-lvc",
		"brass-ti", "brass-lvc",
		"push-ti", "push-lvc",
		"total-ti", "total-lvc",
	} {
		hists[name] = metrics.NewHistogram[time.Duration]()
	}

	for i := 0; i < samples; i++ {
		// TypingIndicator: no ranking, no buffering — but privacy checks
		// and device transformations via backend calls.
		pubTI := m.EdgeToWAS.Sample(rng)
		brassTI := m.BRASSQueryWAS.Sample(rng) + m.BRASSProcess.Sample(rng) + m.PylonFanout.Sample(rng)
		pushTI := m.PushToDevice.Sample(rng)
		hists["publish-ti"].Observe(pubTI)
		hists["brass-ti"].Observe(brassTI)
		hists["push-ti"].Observe(pushTI)
		hists["total-ti"].Observe(pubTI + brassTI + pushTI)

		// LVC: ranking at the WAS, buffering + rate limiting at the
		// BRASS, pushes competing with video bytes at the edge.
		pubLVC := m.EdgeToWAS.Sample(rng)
		wait := stream.BufferWait.Sample(rng)
		if wait > stream.BufferCap {
			wait = stream.BufferCap
		}
		brassLVC := m.WASRanking.Sample(rng) + m.BRASSQueryWAS.Sample(rng) +
			m.BRASSProcess.Sample(rng) + m.PylonFanout.Sample(rng) + wait
		pushLVC := m.LVCPushToDevice.Sample(rng)
		hists["publish-lvc"].Observe(pubLVC)
		hists["brass-lvc"].Observe(brassLVC)
		hists["push-lvc"].Observe(pushLVC)
		hists["total-lvc"].Observe(pubLVC + brassLVC + pushLVC)
	}

	ms := func(d time.Duration) string { return fmt.Sprintf("%dms", d.Milliseconds()) }
	r := Result{ID: "fig9", Title: "Update latency CDFs: TypingIndicator vs LiveVideoComments"}
	r.AddRow("publish edge->WAS p50 (TI)", "~55ms", ms(hists["publish-ti"].Percentile(50)),
		"paper fig: 10-260ms band")
	r.AddRow("publish edge->WAS p99 (TI)", "<260ms", ms(hists["publish-ti"].Percentile(99)), "")
	r.AddRow("BRASS processing p50 (TI)", "~180ms", ms(hists["brass-ti"].Percentile(50)),
		"includes Pylon + backend calls")
	r.AddRow("BRASS processing p50 (LVC)", ">2000ms", ms(hists["brass-lvc"].Percentile(50)),
		"ranking + buffering dominate (log-scale fig)")
	r.AddRow("BRASS->device p50 (TI)", "~220ms", ms(hists["push-ti"].Percentile(50)), "")
	r.AddRow("BRASS->device p50 (LVC)", "~600ms", ms(hists["push-lvc"].Percentile(50)),
		"competes with video bandwidth at the edge")
	r.AddRow("total p50 (TI)", "<1s", ms(hists["total-ti"].Percentile(50)), "")
	r.AddRow("total p50 (LVC)", ">3s", ms(hists["total-lvc"].Percentile(50)), "")

	for name, h := range hists {
		r.AddSeries(name, cdfSeries(h))
	}
	return r
}

// cdfSeries renders a histogram as (fraction, milliseconds) CDF points,
// matching the figure's axes.
func cdfSeries(h *metrics.Histogram[time.Duration]) []SeriesPoint {
	pts := h.CDF(100)
	out := make([]SeriesPoint, len(pts))
	for i, p := range pts {
		out[i] = SeriesPoint{X: p.Fraction, Y: float64(p.Value.Milliseconds())}
	}
	return out
}
