package apps

import (
	"fmt"
	"sync"
	"time"

	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
)

// This file implements the LiveVideoComments high-volume strategy of paper
// §3.4. The straightforward implementation (every comment to /LVC/videoID)
// does not scale to videos where a million comments arrive within seconds:
// every BRASS serving any viewer would receive every comment.
//
// For hot videos, the WAS switches strategy:
//
//   - comments scoring at or above HighRankCutoff are published to the
//     video's main topic /LVC/videoID (everyone should consider them);
//   - comments scoring below HotDiscardCutoff are discarded outright;
//   - the remaining comments are published to the per-poster topic
//     /LVC/videoID/uid, and each viewer's BRASS subscribes to
//     /LVC/videoID/f-uid for each *friend* of the viewer — so ordinary
//     comments only travel toward viewers who know the poster.
//
// Hotness is detected automatically from the comment arrival rate in a
// sliding window.

// Hot-video tuning.
const (
	// DefaultHotThreshold is the windowed comment count beyond which a
	// video switches to the high-volume strategy.
	DefaultHotThreshold = 1000
	// DefaultHotWindow is the rate-measurement window.
	DefaultHotWindow = 10 * time.Second
	// HighRankCutoff routes a comment to the main video topic.
	HighRankCutoff = 0.95
	// HotDiscardCutoff drops low-value comments at the WAS during
	// storms (nobody would ever see them anyway).
	HotDiscardCutoff = 0.3
)

// LVCUserTopic returns the per-poster topic used by the high-volume
// strategy: /LVC/videoID/uid.
func LVCUserTopic(videoID uint64, uid socialgraph.UserID) pylon.Topic {
	return pylon.Topic(fmt.Sprintf("/LVC/%d/%d", videoID, uid))
}

// hotTracker measures per-video comment rates and remembers which videos
// are operating in high-volume mode. Safe for concurrent use (the WAS
// serves mutations concurrently).
type hotTracker struct {
	mu        sync.Mutex
	threshold int
	window    time.Duration
	counts    map[uint64]*windowCount
	hot       map[uint64]bool
}

type windowCount struct {
	start time.Time
	n     int
}

func newHotTracker(threshold int, window time.Duration) *hotTracker {
	return &hotTracker{
		threshold: threshold,
		window:    window,
		counts:    make(map[uint64]*windowCount),
		hot:       make(map[uint64]bool),
	}
}

// observe records one comment on videoID at time now and returns whether
// the video is (now) hot.
func (h *hotTracker) observe(videoID uint64, now time.Time) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	wc := h.counts[videoID]
	if wc == nil || now.Sub(wc.start) > h.window {
		wc = &windowCount{start: now}
		h.counts[videoID] = wc
	}
	wc.n++
	if wc.n > h.threshold {
		h.hot[videoID] = true
	}
	return h.hot[videoID]
}

// isHot reports the current mode without recording a comment.
func (h *hotTracker) isHot(videoID uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hot[videoID]
}

// IsHotVideo reports whether videoID is in high-volume mode.
func (a *LiveVideoComments) IsHotVideo(videoID uint64) bool {
	return a.hot.isHot(videoID)
}

// ConfigureHotDetection replaces the automatic hot-video detector's
// threshold and window (planned large events tune these down; tests too).
func (a *LiveVideoComments) ConfigureHotDetection(threshold int, window time.Duration) {
	a.hot.mu.Lock()
	a.hot.threshold = threshold
	a.hot.window = window
	a.hot.mu.Unlock()
}
