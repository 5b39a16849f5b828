#ifndef CEBIS_OBS_TAPS_H
#define CEBIS_OBS_TAPS_H

// The one observability hand-off value. Every layer that accepts taps -
// the simulation engine (EngineConfig), the sweep runner (SweepOptions),
// the live service (LiveConfig), the event log writer/reader and the
// network transport (src/net/) - takes this single struct instead of
// growing its own {metrics, tracer} pointer pair, so threading
// observability through a new subsystem is one field, not two, and a
// caller wires a whole stack with one value:
//
//   obs::Taps taps{&metrics, &tracer};
//   config.taps = taps;            // engine
//   options.taps = taps;           // sweep
//   EventLogWriter log(path, taps);
//
// Both pointers are borrowed and may be null (null = uninstrumented,
// the default); a null pointer is the one way to switch metrics or
// tracing off. Taps are write-only by contract: nothing downstream
// reads a metric or span back into a decision, so results are
// byte-identical with taps present or absent.

namespace cebis::obs {

class MetricsRegistry;
class Tracer;

struct Taps {
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
};

}  // namespace cebis::obs

#endif  // CEBIS_OBS_TAPS_H
