package replica

// VerifyEvery exposes the minting bound to the verify-point tests.
const VerifyEvery = verifyEvery
