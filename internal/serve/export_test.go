package serve

// withoutTelemetry returns o with the obs registry disabled: the bare
// baseline the telemetry overhead benchmark compares against.
func withoutTelemetry(o Options) Options {
	o.noTelemetry = true
	return o
}
