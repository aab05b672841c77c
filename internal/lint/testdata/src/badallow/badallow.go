// Package badallow exercises brlint's validation of its directives
// themselves: a wrong verb, an unknown rule name, a missing reason and a
// //brlint:hotpath outside a function's doc comment each surface as
// diagnostics of the pseudo-rule "brlint", and a reason-less allow does not
// suppress anything. Checked by TestMalformedSuppressions, which asserts the
// exact diagnostic set rather than using want comments.
package badallow

import "time"

// Wrong verb: only allow(...) exists.
//brlint:ignore(no-direct-time) wrong directive verb

// Unknown rule name.
//brlint:allow(no-such-rule) the rule name is misspelled

// Missing reason: the directive below is rejected, so the time.Now call is
// NOT suppressed and is reported as a fourth diagnostic.
func Bad() time.Time {
	//brlint:allow(no-direct-time)
	return time.Now()
}

// A blank line parts this directive from Detached, so it is no doc comment
// and gates nothing: the make below is not reported by hot-path-alloc.
//brlint:hotpath

func Detached() []byte {
	return make([]byte, 8)
}

// Inside a body the directive gates nothing either.
func Inside() []byte {
	//brlint:hotpath
	return make([]byte, 8)
}
