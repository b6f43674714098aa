package replica

import (
	"io"

	"drqos/internal/server"
)

// VerifyEvery exposes the minting bound to the verify-point tests.
const VerifyEvery = verifyEvery

// StreamMessage is one push of the stream, decoded.
type StreamMessage struct {
	Term, DurableSeq uint64
	Verify           []server.VerifyPoint
	Frames           []byte
}

// ReadStreamMessage reads one push off a stream's response body, the way
// the follower does.
func ReadStreamMessage(r io.Reader) (StreamMessage, error) {
	m, _, err := readMessage(r, nil)
	return StreamMessage{Term: m.term, DurableSeq: m.durable, Verify: m.verify, Frames: m.frames}, err
}
