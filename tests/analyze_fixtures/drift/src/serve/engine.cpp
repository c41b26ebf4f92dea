// Drift fixture: a span and env knobs, one read through an arbitrary helper
// rather than getenv.
void serve() {
  DAGT_TRACE_SCOPE("serve/fixture");
  const char* cap = std::getenv("DAGT_FIXTURE_KNOB");
  const int wrapped = anyHelper("DAGT_FIXTURE_WRAPPED", 1);
  (void)cap;
  (void)wrapped;
}
