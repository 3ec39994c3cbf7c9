// expect-error: not handled in switch
//
// A name switch written like TraceEventName (src/core/trace.cc) that misses
// the enumerator added last: the trace would print "?" for it.

enum class Event { kBoot, kPanic, kReboot };

const char* EventName(Event event) {
  switch (event) {
    case Event::kBoot:
      return "boot";
    case Event::kPanic:
      return "panic";
  }
  return "?";
}
