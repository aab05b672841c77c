package brass

import (
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
)

// PubSub is the Pylon surface a BRASS host consumes: subscription
// registration plus host lifecycle. *pylon.Service satisfies it directly
// (the in-process cluster); the multi-process deployment satisfies it with
// a control-protocol client talking to the pylon tier (internal/ctrl), so
// the host is oblivious to whether Pylon is a function call or a socket
// away.
//
// Implementations must preserve Pylon's error identities — in particular
// pylon.ErrNoQuorum must survive (wrapped is fine), because the host's
// subscription manager classifies it as transient and retries in the
// background.
type PubSub interface {
	// RegisterHost announces the subscriber so published events can be
	// delivered to it.
	RegisterHost(sub pylon.Subscriber)
	// Subscribe registers hostID's interest in topic.
	Subscribe(topic pylon.Topic, hostID string) error
	// Unsubscribe removes hostID's interest in topic.
	Unsubscribe(topic pylon.Topic, hostID string) error
	// RemoveHost drops every subscription held by hostID.
	RemoveHost(hostID string)
}

// Backend is the WAS surface a BRASS host consumes: subscription
// resolution, queries issued on behalf of applications, and the privacy/
// payload path. *was.Server satisfies it directly; the multi-process
// deployment uses a control-protocol client (internal/ctrl).
type Backend interface {
	// ResolveSubscription maps a device subscription expression to the
	// concrete Pylon topics it covers.
	ResolveSubscription(viewer socialgraph.UserID, expr string) ([]pylon.Topic, error)
	// QueryIn executes a GraphQL read as viewer in region.
	QueryIn(region string, viewer socialgraph.UserID, expr string) ([]byte, error)
	// CheckEventVisibility runs the privacy check gating the release of
	// ev's payload to viewer.
	CheckEventVisibility(viewer socialgraph.UserID, ev pylon.Event) error
	// ResolvePayloadIn resolves ev's viewer-independent payload bytes.
	ResolvePayloadIn(region, app string, ev pylon.Event) ([]byte, error)
	// FetchPayloadIn is CheckEventVisibility + ResolvePayloadIn in one call.
	// No host calls it; the benchmark's traced backend forwards it.
	FetchPayloadIn(region, app string, viewer socialgraph.UserID, ev pylon.Event) ([]byte, error)
}
