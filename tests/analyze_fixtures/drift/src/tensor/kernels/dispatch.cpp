// Drift fixture: the kernel tier registry.
const char* const kTierNames[kTierCount] = {
    "fixture_tier",
};
