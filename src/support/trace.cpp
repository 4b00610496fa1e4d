#include "support/trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>

#include "support/logging.hpp"

namespace support
{
namespace trace
{

// --- Buffer ----------------------------------------------------------

Event &
Buffer::push(Event e)
{
    e.sm = sm_;
    if (events_.size() < capacity_) {
        events_.push_back(std::move(e));
        return events_.back();
    }
    // Ring is full: overwrite the oldest event. Deterministic, since
    // the producers are.
    const size_t slot = head_;
    events_[slot] = std::move(e);
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
    return events_[slot];
}

Event &
Buffer::emit(EventKind kind, uint32_t category, std::string name)
{
    Event e;
    e.kind = kind;
    e.category = category;
    e.cycle = now_;
    e.name = std::move(name);
    return push(std::move(e));
}

std::vector<Event>
Buffer::drain()
{
    std::vector<Event> out;
    out.reserve(events_.size());
    for (size_t i = 0; i < events_.size(); ++i)
        out.push_back(std::move(events_[(head_ + i) % events_.size()]));
    events_.clear();
    head_ = 0;
    return out;
}

// --- Session ---------------------------------------------------------

Session::Session(SessionConfig cfg)
    : cfg_(cfg), device_(cfg.mask, cfg.ringCapacity, -1)
{
}

void
Session::beginTrack(const std::string &name)
{
    flush();
    for (uint32_t i = 0; i < trackNames_.size(); ++i) {
        if (trackNames_[i] == name) {
            curTrack_ = i;
            haveTrack_ = true;
            return;
        }
    }
    curTrack_ = static_cast<uint32_t>(trackNames_.size());
    trackNames_.push_back(name);
    trackBase_.push_back(0);
    haveTrack_ = true;
}

Buffer *
Session::smBuffer(unsigned sm)
{
    while (sms_.size() <= sm)
        sms_.push_back(std::make_unique<Buffer>(
            cfg_.mask, cfg_.ringCapacity,
            static_cast<int32_t>(sms_.size())));
    return sms_[sm].get();
}

void
Session::drainInto(Buffer &buf, uint64_t base)
{
    for (Event &e : buf.drain()) {
        e.cycle += base;
        committed_.push_back(Committed{std::move(e), curTrack_});
    }
}

void
Session::commitAttempt(uint64_t attempt_cycles)
{
    if (!haveTrack_)
        beginTrack("default");
    const uint64_t base = trackBase_[curTrack_];
    drainInto(device_, base);
    for (auto &sm : sms_)
        if (sm)
            drainInto(*sm, base);
    trackBase_[curTrack_] = base + attempt_cycles + 1;
}

void
Session::flush()
{
    if (!haveTrack_) {
        if (device_.size() == 0)
            return;
        beginTrack("default");
    }
    const uint64_t base = trackBase_[curTrack_];
    drainInto(device_, base);
    for (auto &sm : sms_)
        if (sm)
            drainInto(*sm, base);
}

uint64_t
Session::droppedEvents() const
{
    uint64_t n = device_.dropped();
    for (const auto &sm : sms_)
        if (sm)
            n += sm->dropped();
    return n;
}

// --- profiler --------------------------------------------------------

StepProfile *
Session::stepScratch(unsigned sm, size_t code_words)
{
    if (!cfg_.profile)
        return nullptr;
    while (stepScratch_.size() <= sm)
        stepScratch_.emplace_back();
    StepProfile &scratch = stepScratch_[sm];
    scratch.pcCounts.assign(code_words, 0);
    scratch.opSteps.clear();
    scratch.opMisses.clear();
    return &scratch;
}

void
Session::foldProfile()
{
    if (!cfg_.profile || !haveTrack_)
        return;
    KernelProfile &prof = profiles_[trackNames_[curTrack_]];
    const auto fold = [](std::vector<uint64_t> &into,
                         std::vector<uint64_t> &from) {
        if (from.size() > into.size())
            into.resize(from.size(), 0);
        for (size_t i = 0; i < from.size(); ++i)
            into[i] += from[i];
        from.clear();
    };
    for (StepProfile &scratch : stepScratch_) {
        fold(prof.pcCounts, scratch.pcCounts);
        fold(prof.opSteps, scratch.opSteps);
        fold(prof.opMisses, scratch.opMisses);
    }
    ++prof.launches;
}

void
Session::setDisasm(const std::vector<std::string> &disasm,
                   const std::vector<std::string> &op_names)
{
    if (!cfg_.profile || !haveTrack_)
        return;
    KernelProfile &prof = profiles_[trackNames_[curTrack_]];
    if (prof.disasm.empty())
        prof.disasm = disasm;
    if (prof.opNames.empty())
        prof.opNames = op_names;
}

const KernelProfile *
Session::profileFor(const std::string &track) const
{
    auto it = profiles_.find(track);
    return it == profiles_.end() ? nullptr : &it->second;
}

// --- export ----------------------------------------------------------

namespace
{

const char *
phaseOf(EventKind kind)
{
    switch (kind) {
      case EventKind::Span: return "X";
      case EventKind::Counter: return "C";
      default: return "i";
    }
}

std::string
threadName(int32_t sm)
{
    return sm < 0 ? std::string("device") : strprintf("sm%d", sm);
}

} // namespace

json::Value
Session::chromeTrace(const std::string &binary)
{
    flush();

    json::Value doc = json::Value::object();
    doc.set("schema", json::Value::str("cheri-simt-trace-v1"));
    doc.set("binary", json::Value::str(binary));
    doc.set("displayTimeUnit", json::Value::str("ns"));
    doc.set("dropped_events", json::Value::integer(droppedEvents()));

    json::Value events = json::Value::array();

    // Metadata: tracks are processes, producers are threads. Collect
    // the (track, producer) pairs actually present, in a sorted (hence
    // deterministic) order.
    std::map<std::pair<uint32_t, int32_t>, bool> producers;
    for (const Committed &c : committed_)
        producers[{c.track, c.event.sm}] = true;

    for (uint32_t t = 0; t < trackNames_.size(); ++t) {
        json::Value m = json::Value::object();
        m.set("name", json::Value::str("process_name"));
        m.set("ph", json::Value::str("M"));
        m.set("pid", json::Value::integer(t + 1));
        m.set("tid", json::Value::integer(0));
        json::Value args = json::Value::object();
        args.set("name", json::Value::str(trackNames_[t]));
        m.set("args", std::move(args));
        events.push(std::move(m));
    }
    for (const auto &[key, unused] : producers) {
        (void)unused;
        json::Value m = json::Value::object();
        m.set("name", json::Value::str("thread_name"));
        m.set("ph", json::Value::str("M"));
        m.set("pid", json::Value::integer(key.first + 1));
        m.set("tid", json::Value::integer(
                         static_cast<uint64_t>(key.second + 1)));
        json::Value args = json::Value::object();
        args.set("name", json::Value::str(threadName(key.second)));
        m.set("args", std::move(args));
        events.push(std::move(m));
    }

    for (const Committed &c : committed_) {
        const Event &e = c.event;
        json::Value v = json::Value::object();
        v.set("name", json::Value::str(e.name));
        v.set("ph", json::Value::str(phaseOf(e.kind)));
        v.set("ts", json::Value::integer(e.cycle));
        v.set("pid", json::Value::integer(c.track + 1));
        v.set("tid", json::Value::integer(static_cast<uint64_t>(e.sm + 1)));
        if (e.kind == EventKind::Span)
            v.set("dur", json::Value::integer(e.dur));
        if (e.kind == EventKind::Instant)
            v.set("s", json::Value::str("t"));
        if (!e.args.empty()) {
            json::Value args = json::Value::object();
            for (const auto &[k, val] : e.args)
                args.set(k, val);
            v.set("args", std::move(args));
        }
        events.push(std::move(v));
    }

    doc.set("traceEvents", std::move(events));
    return doc;
}

bool
Session::writeChromeTrace(const std::string &path, const std::string &binary)
{
    json::Value doc = chromeTrace(binary);
    std::ofstream out(path);
    if (!out)
        return false;
    out << doc.dump(2) << "\n";
    return bool(out);
}

} // namespace trace
} // namespace support
