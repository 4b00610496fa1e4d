#include "spans.hpp"

#include <fstream>

#include "support/json.hpp"

namespace perfbench
{

SpanRecorder::SpanRecorder(bool recording)
    : recording_(recording), epoch_(Clock::now())
{
}

void
SpanRecorder::add(uint64_t id, const char *name, uint64_t parent,
                  uint64_t op, Clock::time_point t0, Clock::time_point t1,
                  const std::string &kernel)
{
    if (!recording_)
        return;
    spans_.push_back(Span{name, id, parent, op, nanosBetween(epoch_, t0),
                          nanosBetween(epoch_, t1), kernel});
}

bool
SpanRecorder::write(const std::string &path, const std::string &process,
                    uint64_t seed) const
{
    using support::json::Value;
    const auto meta = [](const char *what, const std::string &name) {
        Value m = Value::object();
        m.set("name", Value::str(what));
        m.set("ph", Value::str("M"));
        m.set("pid", Value::integer(1));
        m.set("tid", Value::integer(1));
        Value args = Value::object();
        args.set("name", Value::str(name));
        m.set("args", std::move(args));
        return m;
    };

    Value events = Value::array();
    events.push(meta("process_name", process));
    events.push(meta("thread_name", "host"));
    for (const Span &s : spans_) {
        Value e = Value::object();
        e.set("name", Value::str(s.name));
        e.set("ph", Value::str("X"));
        e.set("ts", Value::integer(static_cast<uint64_t>(s.startNs)));
        e.set("dur", Value::integer(static_cast<uint64_t>(s.endNs - s.startNs)));
        e.set("pid", Value::integer(1));
        e.set("tid", Value::integer(1));
        Value args = Value::object();
        args.set("id", Value::integer(s.id));
        args.set("parent", Value::integer(s.parent));
        args.set("op", Value::integer(s.op));
        args.set("end", Value::integer(static_cast<uint64_t>(s.endNs)));
        if (!s.kernel.empty())
            args.set("kernel", Value::str(s.kernel));
        e.set("args", std::move(args));
        events.push(std::move(e));
    }

    Value doc = Value::object();
    doc.set("schema", Value::str("cheri-simt-trace-v1"));
    doc.set("binary", Value::str(process));
    doc.set("displayTimeUnit", Value::str("ns"));
    doc.set("dropped_events", Value::integer(0));
    doc.set("seed", Value::integer(seed));
    doc.set("traceEvents", std::move(events));

    std::ofstream out(path);
    if (!out)
        return false;
    out << doc.dump(1) << "\n";
    return bool(out);
}

} // namespace perfbench
