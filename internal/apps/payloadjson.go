package apps

import (
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// Every device-facing payload type encodes itself. AppendJSON writes byte
// for byte what json.Marshal writes for the value: the same fields in
// declaration order, encoding/json's string escaping and its float format,
// so a device decodes the bytes with encoding/json as before
// (FuzzPayloadJSON holds the two equal; DESIGN.md §7f lists the layouts).
// It grows b once, by the encoding's length before any string escape (a
// float is formatted on the stack first), so a resolver's AppendJSON(nil)
// is one allocation: the payload's own bytes, with no box and no copy.

// AppendJSON appends p's JSON encoding to b.
func (p MessagePayload) AppendJSON(b []byte) []byte {
	b = slices.Grow(b, len(`{"seq":,"thread":,"author":,"text":""}`)+
		uintLen(p.Seq)+uintLen(p.Thread)+uintLen(p.Author)+len(p.Text))
	b = strconv.AppendUint(append(b, `{"seq":`...), p.Seq, 10)
	b = strconv.AppendUint(append(b, `,"thread":`...), p.Thread, 10)
	b = strconv.AppendUint(append(b, `,"author":`...), p.Author, 10)
	b = appendString(append(b, `,"text":`...), p.Text)
	return append(b, '}')
}

// AppendJSON appends p's JSON encoding to b.
func (p CommentPayload) AppendJSON(b []byte) []byte {
	var buf [32]byte
	score := appendFloat(buf[:0], p.Score)
	b = slices.Grow(b, len(`{"comment_id":,"video_id":,"author":,"text":"","score":}`)+
		uintLen(p.CommentID)+uintLen(p.VideoID)+uintLen(p.Author)+len(p.Text)+len(score))
	b = strconv.AppendUint(append(b, `{"comment_id":`...), p.CommentID, 10)
	b = strconv.AppendUint(append(b, `,"video_id":`...), p.VideoID, 10)
	b = strconv.AppendUint(append(b, `,"author":`...), p.Author, 10)
	b = appendString(append(b, `,"text":`...), p.Text)
	b = append(append(b, `,"score":`...), score...)
	return append(b, '}')
}

// AppendJSON appends p's JSON encoding to b.
func (p NotificationPayload) AppendJSON(b []byte) []byte {
	b = slices.Grow(b, len(`{"id":,"kind":"","actor":,"text":"","unseen":}`)+
		uintLen(p.ID)+len(p.Kind)+uintLen(p.Actor)+len(p.Text)+uintLen(p.Unseen))
	b = strconv.AppendUint(append(b, `{"id":`...), p.ID, 10)
	b = appendString(append(b, `,"kind":`...), p.Kind)
	b = strconv.AppendUint(append(b, `,"actor":`...), p.Actor, 10)
	b = appendString(append(b, `,"text":`...), p.Text)
	b = strconv.AppendUint(append(b, `,"unseen":`...), p.Unseen, 10)
	return append(b, '}')
}

// withUnseen is b, a NotificationPayload's JSON with Unseen 0, with Unseen n in
// new bytes (b is shared through the payload cache); false if b does not fit.
func withUnseen(b []byte, n uint64) ([]byte, bool) {
	const zero = `,"unseen":0}`
	if len(b) < len(zero) || string(b[len(b)-len(zero):]) != zero {
		return nil, false
	}
	out := slices.Grow(slices.Clip(b[:len(b)-len(`0}`)]), uintLen(n)+1)
	return append(strconv.AppendUint(out, n, 10), '}'), true
}

// AppendJSON appends d's JSON encoding to b, leaving out the zero
// omitempty fields as json.Marshal does (a -0 rank is zero too).
func (d StoryDelta) AppendJSON(b []byte) []byte {
	var buf [32]byte
	rank := appendFloat(buf[:0], d.Rank)
	b = slices.Grow(b, len(`{"op":"","author":,"story_id":,"content":"","rank":}`)+
		len(d.Op)+uintLen(d.Author)+uintLen(d.StoryID)+len(d.Content)+len(rank))
	b = appendString(append(b, `{"op":`...), d.Op)
	b = strconv.AppendUint(append(b, `,"author":`...), d.Author, 10)
	if d.StoryID != 0 {
		b = strconv.AppendUint(append(b, `,"story_id":`...), d.StoryID, 10)
	}
	if d.Content != "" {
		b = appendString(append(b, `,"content":`...), d.Content)
	}
	if d.Rank != 0 {
		b = append(append(b, `,"rank":`...), rank...)
	}
	return append(b, '}')
}

// AppendJSON appends p's JSON encoding to b.
func (p StatusPayload) AppendJSON(b []byte) []byte {
	b = slices.Grow(b, len(`{"user":,"online":false}`)+uintLen(p.User))
	b = strconv.AppendUint(append(b, `{"user":`...), p.User, 10)
	b = strconv.AppendBool(append(b, `,"online":`...), p.Online)
	return append(b, '}')
}

// AppendJSON appends p's JSON encoding to b.
func (p TypingPayload) AppendJSON(b []byte) []byte {
	b = slices.Grow(b, len(`{"thread":,"user":,"typing":false}`)+uintLen(p.Thread)+uintLen(p.User))
	b = strconv.AppendUint(append(b, `{"thread":`...), p.Thread, 10)
	b = strconv.AppendUint(append(b, `,"user":`...), p.User, 10)
	b = strconv.AppendBool(append(b, `,"typing":`...), p.Typing)
	return append(b, '}')
}

// uintLen is the number of digits strconv.AppendUint writes for v.
func uintLen(v uint64) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21, with
// a one-digit negative exponent unpadded — at most 25 bytes. f is finite:
// json.Marshal refuses NaN and ±Inf, and every score here is a
// QualityScore in [0, 1).
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1] // e-07 → e-7
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}

// appendString appends s quoted as json.Marshal quotes it: `"` and `\` and
// the control bytes escaped (\b \f \n \r \t by name), `<`, `>` and `&` as
// \u00XX for HTML safety, an invalid UTF-8 byte as \ufffd, and U+2028 and
// U+2029 as \u2028 and \u2029 for JSONP.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
