// Drift fixture: metric keys, one documented only as a path segment and
// one in the retrieval slice.
void fillMetrics(Json& json) {
  json.set("fixture_requests", 1);
  json.set("fixture_spans", 2);
  json.set("retrieval_fixture_hits", 3);
}
