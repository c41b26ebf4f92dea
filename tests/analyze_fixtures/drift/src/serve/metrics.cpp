// Drift fixture: metric keys, one documented only as a path segment.
void fillMetrics(Json& json) {
  json.set("fixture_requests", 1);
  json.set("fixture_spans", 2);
}
