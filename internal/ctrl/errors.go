package ctrl

import (
	"errors"
	"fmt"

	"bladerunner/internal/pylon"
	"bladerunner/internal/was"
)

// errUnknownMethod answers a request for a method this end does not serve.
var errUnknownMethod = errors.New("ctrl: unknown method")

// sentinels is the error-code table: an error frame carries the index of
// the first entry the error Is (0 = none of them) beside its rendered
// message. Sentinel errors that callers classify with errors.Is (the brass
// subscription manager retries transient Pylon failures; the device layer
// distinguishes shed from failure) must survive the RPC boundary, so each
// has a stable code that unwire maps back to the sentinel on the calling
// side. The codes are the protocol: never renumber, only append.
var sentinels = [...]error{
	1: errUnknownMethod,
	2: pylon.ErrNoQuorum,
	3: pylon.ErrUnavailable,
	4: pylon.ErrShed,
	5: pylon.ErrUnknownSubscriber,
	6: was.ErrDenied,
	7: was.ErrUnknownField,
	8: was.ErrUnknownUser,
}

// codeFor maps err to its wire code. errors.Is runs on the server side, so
// wrapped sentinels map correctly even though only the rendered message
// crosses the wire.
func codeFor(err error) byte {
	for code := 1; code < len(sentinels); code++ {
		if errors.Is(err, sentinels[code]) {
			return byte(code)
		}
	}
	return 0
}

// unwire reconstructs a caller-side error, restoring sentinel identity
// from the code. The remote message is preserved in the rendering.
func unwire(code byte, text, name string, m method) error {
	if code > 0 && int(code) < len(sentinels) {
		return fmt.Errorf("ctrl %s: %s: %w (remote: %s)", name, m, sentinels[code], text)
	}
	return fmt.Errorf("ctrl %s: %s: remote: %s", name, m, text)
}
