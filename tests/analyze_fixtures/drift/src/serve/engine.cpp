// Drift fixture: spans and env knobs, one of each in the retrieval slice,
// and a knob read through an arbitrary helper rather than getenv.
void serve() {
  DAGT_TRACE_SCOPE("serve/fixture");
  DAGT_TRACE_SCOPE("retrieval/fixture_probe");
  const char* cap = std::getenv("DAGT_FIXTURE_KNOB");
  const float k = envFloat("DAGT_RETRIEVAL_FIXTURE_K", 4.0f);
  const int wrapped = anyHelper("DAGT_FIXTURE_WRAPPED", 1);
  (void)cap;
  (void)k;
  (void)wrapped;
}
