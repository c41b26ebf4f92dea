// Drift fixture: the what-if command registry.
const WhatifCommand kWhatifCommands[] = {
    {"nudge", "nudge <cell>", "move the cell one site right"},
};
