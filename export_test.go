package sebmc

// ProveInduction exposes Prove's k-induction arm to the external tests.
var ProveInduction = proveInduction
