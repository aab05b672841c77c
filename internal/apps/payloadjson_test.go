package apps

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzPayloadJSON holds every payload type's AppendJSON to json.Marshal's
// bytes: the device decodes what the resolvers encode with encoding/json.
// The seeds cover what encoding/json escapes (`<>&`, `"` and `\`, control
// bytes, invalid UTF-8, U+2028/2029), the empty string, the float formats
// (-0, the exponent cutoffs, a long mantissa, a negative value) and
// StoryDelta's omitempty fields both zero and set. Notifications' badge
// splice, withUnseen, is held to AppendJSON the same way.
func FuzzPayloadJSON(f *testing.F) {
	strs := []string{"", "what a save!", "<b>&amp;</b>", `say "hi" \o/`, "\x00\x01\b\f\n\r\t\x1b\x1f\x7f",
		"bad \xff\xfe utf-8 \xe2\x82", "line\u2028para\u2029end", "héllo ✓ 🎉"}
	scores := []float64{0, math.Copysign(0, -1), 1e-7, 1e21, 123456789.125, -0.4321, 0.8123, 1e-6, 999999999999999e6}
	for i, s := range strs {
		f.Add(s, strs[(i+1)%len(strs)], uint64(i), uint64(1)<<(8*i), uint64(math.MaxUint64)-uint64(i),
			scores[i%len(scores)], i%2 == 0)
	}
	for _, x := range scores {
		f.Add("", "", uint64(0), uint64(0), uint64(0), x, false)
	}
	f.Fuzz(func(t *testing.T, s1, s2 string, x, y, z uint64, score float64, on bool) {
		for _, v := range []interface{ AppendJSON([]byte) []byte }{
			MessagePayload{Seq: x, Thread: y, Author: z, Text: s1},
			CommentPayload{CommentID: x, VideoID: y, Author: z, Text: s1, Score: score},
			NotificationPayload{ID: x, Kind: s1, Actor: y, Text: s2, Unseen: z},
			StoryDelta{Op: s1, Author: x, StoryID: y, Content: s2, Rank: score},
			StoryDelta{Op: s2, Author: z},
			StatusPayload{User: x, Online: on},
			TypingPayload{Thread: x, User: y, Typing: on},
		} {
			want, err := json.Marshal(v)
			if err != nil {
				continue // a NaN or infinite score, which no resolver produces
			}
			if got := v.AppendJSON(nil); !bytes.Equal(got, want) {
				t.Fatalf("%T %+v:\nAppendJSON   %s\njson.Marshal %s", v, v, got, want)
			}
			if got := v.AppendJSON([]byte("[")); !bytes.Equal(got, append([]byte("["), want...)) {
				t.Fatalf("%T %+v: AppendJSON overwrote its prefix: %s", v, v, got)
			}
		}
		// The badge splice: the fetched bytes (Unseen 0) with the count set
		// are AppendJSON's bytes for that count, and the fetched bytes, spare
		// capacity included, are never written.
		fetched := NotificationPayload{ID: x, Kind: s1, Actor: y, Text: s2}.AppendJSON(make([]byte, 0, 512))
		before := bytes.Clone(fetched[:cap(fetched)])
		want := NotificationPayload{ID: x, Kind: s1, Actor: y, Text: s2, Unseen: z}.AppendJSON(nil)
		if got, ok := withUnseen(fetched, z); !ok || !bytes.Equal(got, want) {
			t.Fatalf("withUnseen(%s, %d) = %s, %v; want %s", fetched, z, got, ok, want)
		}
		if !bytes.Equal(fetched[:cap(fetched)], before) {
			t.Fatalf("withUnseen wrote into the fetched bytes: %s", fetched[:cap(fetched)])
		}
		if _, ok := withUnseen(want, 1); ok != (z == 0) {
			t.Fatalf("withUnseen(%s) = %v: only an unseen count of 0 splices", want, ok)
		}
	})
}
