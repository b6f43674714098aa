package replica

// VerifyEvery exposes the minting bound to the verify-point tests.
const VerifyEvery = verifyEvery

// AckFloor exposes the acknowledgment floor to the stream tests.
const AckFloor = ackFloor
