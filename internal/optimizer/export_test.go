package optimizer

// BestProbe exposes the probe-position choice to the external tests.
var BestProbe = bestProbe
