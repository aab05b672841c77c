package apps

import (
	"encoding/json"
	"strconv"

	"bladerunner/internal/brass"
	"bladerunner/internal/burst"
	"bladerunner/internal/pylon"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

// AppNotifications is the WebsiteNotifications application name.
const AppNotifications = "notifications"

// WebsiteNotifications delivers the jewel-badge notifications (friend
// request, mention, comment-on-your-post...) listed among §1's prominent
// applications. Its BRASS pattern combines immediate pushes for individual
// notifications with a monotonic unseen-count the device renders as the
// badge. The unseen count is persisted into the stream header via rewrites,
// so a reconnecting device shows the right badge immediately, before any
// notification payloads arrive.
type WebsiteNotifications struct{}

// HdrUnseenCount is the stream header carrying the badge state.
const HdrUnseenCount = "unseen-count"

// NotifTopic returns the Pylon topic for one user's notifications.
func NotifTopic(uid uint64) pylon.Topic {
	return idTopic("/Notif/", uid)
}

// NotificationPayload is the device-facing notification.
type NotificationPayload struct {
	ID     uint64 `json:"id"`
	Kind   string `json:"kind"`
	Actor  uint64 `json:"actor"`
	Text   string `json:"text"`
	Unseen uint64 `json:"unseen"` // badge value after this notification
}

// NewWebsiteNotifications registers the WAS half and returns the app.
func NewWebsiteNotifications(w Registrar) *WebsiteNotifications {
	a := &WebsiteNotifications{}

	// notify(user: U, kind: "...", text: "..."): some product surface
	// generated a notification for U (the caller is the actor).
	w.RegisterMutation("notify", func(ctx was.Ctx, call was.FieldCall) (any, error) {
		target, err := call.Uint64Arg("user")
		if err != nil {
			return nil, err
		}
		kind, err := call.StringArg("kind")
		if err != nil {
			return nil, err
		}
		text, err := call.StringArg("text")
		if err != nil {
			return nil, err
		}
		ref := ctx.Srv.TAO.ObjectAdd("notification", tao.Props{
			{"kind", kind},
			{"text", text},
			{"actor", strconv.FormatUint(uint64(ctx.Viewer), 10)},
			{"to", strconv.FormatUint(target, 10)},
		})
		ctx.Srv.TAO.AssocAdd(tao.ObjID(target), "user_notif", ref, ctx.Now, kind)
		ctx.Publish(pylon.Event{Topic: NotifTopic(target), Ref: uint64(ref), Author: uint64(ctx.Viewer)}, false)
		return uint64(ref), nil
	})

	w.RegisterSubscription("websiteNotifications", func(ctx was.Ctx, call was.FieldCall) ([]pylon.Topic, error) {
		return []pylon.Topic{NotifTopic(uint64(ctx.Viewer))}, nil
	})

	w.RegisterPayload(AppNotifications, func(ctx was.Ctx, ref tao.ObjID, ev pylon.Event) ([]byte, error) {
		obj, err := ctx.Reader().ObjectGet(ref)
		if err != nil {
			return nil, err
		}
		actor, _ := strconv.ParseUint(obj.Data.Get("actor"), 10, 64)
		return NotificationPayload{
			ID: uint64(ref), Kind: obj.Data.Get("kind"), Actor: actor, Text: obj.Data.Get("text"),
		}.AppendJSON(nil), nil
	})
	return a
}

// Name implements brass.Application.
func (a *WebsiteNotifications) Name() string { return AppNotifications }

type notifStream struct {
	unseen uint64
}

type notifInstance struct {
	app *WebsiteNotifications
	rt  *brass.Runtime
}

// NewInstance implements brass.Application.
func (a *WebsiteNotifications) NewInstance(rt *brass.Runtime) brass.AppInstance {
	return &notifInstance{app: a, rt: rt}
}

func (in *notifInstance) OnStreamOpen(st *brass.Stream) error {
	if _, err := openTopics(in.rt, st); err != nil {
		return err
	}
	state := &notifStream{}
	// A reconnecting device carries its badge state in the header.
	if v := st.Header(HdrUnseenCount); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			state.unseen = n
		}
	}
	st.State = state
	return nil
}

func (in *notifInstance) OnStreamClose(st *brass.Stream, reason string) { st.State = nil }

func (in *notifInstance) OnEvent(ev pylon.Event) {
	for _, st := range in.rt.Instance().StreamsForTopic(ev.Topic) {
		state, ok := st.State.(*notifStream)
		if !ok {
			continue
		}
		raw, err := st.FetchPayload(ev)
		if err != nil {
			st.Filtered() // privacy-denied actor
			continue
		}
		var p NotificationPayload
		if err := json.Unmarshal(raw, &p); err != nil {
			st.Filtered()
			continue
		}
		state.unseen++
		p.Unseen = state.unseen
		b := p.AppendJSON(nil)
		// One decision, one frame: the device never shows the notification
		// beside a stale badge, and admission can shed the payload but not
		// the badge state.
		_ = st.Push(brass.PayloadFor(ev, ev.ID, b), burst.RewriteDelta(
			burst.Header{HdrUnseenCount: strconv.FormatUint(state.unseen, 10)}, nil))
	}
}
