// Package apps contains the Bladerunner applications described in the
// paper (§3.4 and §4): LiveVideoComments, ActiveStatus, TypingIndicator,
// Stories, Messenger (reliable delivery), and NewsFeedPostComments.
//
// Each application consists of two halves, exactly as in production:
//
//   - a WAS half — mutation/query/subscription/payload resolvers registered
//     with the Web Application Server (internal/was), which writes TAO and
//     publishes metadata-only update events to Pylon; and
//   - a BRASS half — a brass.Application whose instances filter, rank,
//     privacy-check, and rate-limit updates per device stream.
//
// The paper stresses that every application is implemented independently in
// "at most a few hundred lines"; each file in this package honors that
// shape. RegisterAll wires every application into a WAS and a BRASS host.
package apps

import (
	"strconv"

	"bladerunner/internal/brass"
	"bladerunner/internal/burst"
	"bladerunner/internal/pylon"
	"bladerunner/internal/was"
)

// Application names used in subscription headers.
const (
	AppLiveComments = "livecomments"
	AppActiveStatus = "activestatus"
	AppTyping       = "typing"
	AppStories      = "stories"
	AppMessenger    = "messenger"
	AppFeedComments = "feedcomments"
)

// idTopic returns prefix+id, formatted on the stack: one allocation, the topic.
func idTopic(prefix string, id uint64) pylon.Topic {
	var buf [32]byte
	return pylon.Topic(strconv.AppendUint(append(buf[:0], prefix...), id, 10))
}

// openTopics is the open sequence every application shares: the stream's
// subscription expression, resolved by the WAS, becomes the stream's topics.
func openTopics(rt *brass.Runtime, st *brass.Stream) ([]pylon.Topic, error) {
	topics, err := rt.ResolveSubscription(st.Viewer, st.Header(burst.HdrSubscription))
	if err != nil {
		return nil, err
	}
	for _, t := range topics {
		if err := st.AddTopic(t); err != nil {
			return nil, err
		}
	}
	return topics, nil
}

// HdrLang is the stream header carrying the viewer's language, used by
// LiveVideoComments' language filter.
const HdrLang = "lang"

// Registrar is the WAS surface the applications' constructors consume:
// registration of query/mutation/subscription/payload resolvers.
// *was.Server satisfies it directly. A process hosting only the BRASS tier
// builds its Suite against NopRegistrar — the WAS halves live in the WAS
// process, reached over the control protocol, so local registration is a
// no-op there.
type Registrar interface {
	RegisterQuery(name string, fn was.QueryFunc)
	RegisterMutation(name string, fn was.MutationFunc)
	RegisterSubscription(name string, fn was.SubscriptionFunc)
	RegisterPayload(app string, fn was.PayloadFunc)
}

// NopRegistrar discards every registration. Used by processes that need the
// applications' BRASS halves but whose WAS resolvers live elsewhere.
type NopRegistrar struct{}

func (NopRegistrar) RegisterQuery(string, was.QueryFunc)               {}
func (NopRegistrar) RegisterMutation(string, was.MutationFunc)         {}
func (NopRegistrar) RegisterSubscription(string, was.SubscriptionFunc) {}
func (NopRegistrar) RegisterPayload(string, was.PayloadFunc)           {}

var _ Registrar = (*was.Server)(nil)
var _ Registrar = NopRegistrar{}

// Suite bundles one instance of every application's shared (WAS-side)
// state, so multiple BRASS hosts can serve the same applications.
type Suite struct {
	LVC          *LiveVideoComments
	ActiveStatus *ActiveStatus
	Typing       *TypingIndicator
	Stories      *Stories
	Messenger    *Messenger
	FeedComments *FeedComments
	Reactions    *LiveVideoReactions
	Notifs       *WebsiteNotifications
}

// NewSuite builds all applications and registers their WAS halves.
func NewSuite(w Registrar) *Suite {
	return &Suite{
		LVC:          NewLiveVideoComments(w),
		ActiveStatus: NewActiveStatus(w),
		Typing:       NewTypingIndicator(w),
		Stories:      NewStories(w),
		Messenger:    NewMessenger(w),
		FeedComments: NewFeedComments(w),
		Reactions:    NewLiveVideoReactions(w),
		Notifs:       NewWebsiteNotifications(w),
	}
}

// RegisterBRASS registers every application's BRASS half on a host.
func (s *Suite) RegisterBRASS(h *brass.Host) {
	h.RegisterApp(s.LVC)
	h.RegisterApp(s.ActiveStatus)
	h.RegisterApp(s.Typing)
	h.RegisterApp(s.Stories)
	h.RegisterApp(s.Messenger)
	h.RegisterApp(s.FeedComments)
	h.RegisterApp(s.Reactions)
	h.RegisterApp(s.Notifs)
}
