package induction

// LoopySrc exposes the loopy model to the external tests.
const LoopySrc = loopySrc
