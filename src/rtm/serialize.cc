#include "rtm/serialize.hh"

#include "sim/component.hh"

namespace akita
{
namespace rtm
{

json::Json
toJson(const introspect::Value &value)
{
    using Kind = introspect::Value::Kind;
    switch (value.kind()) {
      case Kind::Null:
        return json::Json();
      case Kind::Bool:
        return json::Json(value.boolVal());
      case Kind::Int:
        return json::Json(value.intVal());
      case Kind::Float:
        return json::Json(value.floatVal());
      case Kind::Str:
        return json::Json(value.strVal());
      case Kind::List: {
        json::Json arr = json::Json::array();
        for (const auto &item : value.items())
            arr.push(toJson(item));
        return arr;
      }
      case Kind::Dict: {
        json::Json obj = json::Json::object();
        for (const auto &e : value.entries())
            obj.set(e.first, toJson(e.second));
        return obj;
      }
    }
    return json::Json();
}

json::Json
serializeComponent(const sim::Component &component)
{
    json::Json obj = json::Json::object();
    obj.set("name", component.name());

    json::Json fields = json::Json::array();
    for (const auto &f : component.fields().all()) {
        introspect::Value v = f.getter();
        json::Json fj = json::Json::object();
        fj.set("name", f.name);
        fj.set("type", v.typeName());
        fj.set("value", toJson(v));
        fj.set("numeric", v.numeric());
        fields.push(std::move(fj));
    }
    obj.set("fields", std::move(fields));

    json::Json ports = json::Json::array();
    for (const auto &p : component.ports()) {
        json::Json pj = json::Json::object();
        pj.set("name", p->name());
        pj.set("buffer", p->buf().name());
        pj.set("size", static_cast<std::int64_t>(p->buf().size()));
        pj.set("capacity",
               static_cast<std::int64_t>(p->buf().capacity()));
        pj.set("total_sent",
               static_cast<std::int64_t>(p->totalSent()));
        pj.set("send_rejections",
               static_cast<std::int64_t>(p->totalSendRejections()));
        ports.push(std::move(pj));
    }
    obj.set("ports", std::move(ports));

    json::Json buffers = json::Json::array();
    for (const sim::Buffer *b : component.buffers()) {
        // Serialized under the engine lock: size and head agree.
        sim::MsgPtr head = b->peek();
        json::Json bj = json::Json::object();
        bj.set("name", b->name());
        bj.set("size", static_cast<std::int64_t>(b->size()));
        bj.set("capacity", static_cast<std::int64_t>(b->capacity()));
        bj.set("head_kind",
               head == nullptr ? std::string() : std::string(head->kind()));
        buffers.push(std::move(bj));
    }
    obj.set("buffers", std::move(buffers));
    return obj;
}

json::Json
serializeTree(const TreeNode &root)
{
    json::Json obj = json::Json::object();
    obj.set("label", root.label);
    if (!root.componentName.empty())
        obj.set("component", root.componentName);
    if (!root.children.empty()) {
        json::Json kids = json::Json::array();
        for (const auto &kv : root.children)
            kids.push(serializeTree(*kv.second));
        obj.set("children", std::move(kids));
    }
    return obj;
}

json::Json
serializeBuffers(const std::vector<BufferLevel> &levels)
{
    json::Json arr = json::Json::array();
    for (const auto &l : levels) {
        json::Json row = json::Json::object();
        row.set("buffer", l.name);
        row.set("size", static_cast<std::int64_t>(l.size));
        row.set("cap", static_cast<std::int64_t>(l.capacity));
        row.set("percent", l.percent());
        row.set("head_kind", l.headKind);
        arr.push(std::move(row));
    }
    return arr;
}

json::Json
serializeProgress(const std::vector<ProgressBar> &bars)
{
    json::Json arr = json::Json::array();
    for (const auto &b : bars) {
        json::Json bar = json::Json::object();
        bar.set("id", b.id);
        bar.set("label", b.label);
        bar.set("total", b.total);
        bar.set("completed", b.completed);
        bar.set("in_progress", b.inProgress);
        bar.set("not_started", b.notStarted());
        arr.push(std::move(bar));
    }
    return arr;
}

json::Json
serializeProfile(const sim::ProfSnapshot &snapshot)
{
    json::Json obj = json::Json::object();
    obj.set("wall_ns", snapshot.wallNs);

    json::Json entries = json::Json::array();
    for (const auto &e : snapshot.entries) {
        json::Json ej = json::Json::object();
        ej.set("name", e.name);
        ej.set("self_ns", e.selfNs);
        ej.set("total_ns", e.totalNs);
        ej.set("calls", e.calls);
        entries.push(std::move(ej));
    }
    obj.set("functions", std::move(entries));

    json::Json edges = json::Json::array();
    for (const auto &e : snapshot.edges) {
        json::Json ej = json::Json::object();
        ej.set("caller", e.caller);
        ej.set("callee", e.callee);
        ej.set("total_ns", e.totalNs);
        ej.set("calls", e.calls);
        edges.push(std::move(ej));
    }
    obj.set("edges", std::move(edges));
    return obj;
}

json::Json
serializeResources(const ResourceUsage &usage)
{
    json::Json obj = json::Json::object();
    obj.set("cpu_percent", usage.cpuPercent);
    obj.set("rss_bytes", usage.rssBytes);
    obj.set("vm_bytes", usage.vmBytes);
    obj.set("num_threads", usage.numThreads);
    return obj;
}

json::Json
serializeSeries(const TrackedSeries &series)
{
    json::Json obj = json::Json::object();
    obj.set("id", series.id);
    obj.set("component", series.componentName);
    obj.set("field", series.fieldName);
    json::Json pts = json::Json::array();
    for (const auto &s : series.samples) {
        json::Json p = json::Json::object();
        p.set("t_ps", s.simTime);
        p.set("v", s.value);
        pts.push(std::move(p));
    }
    obj.set("points", std::move(pts));
    return obj;
}

void
writeValue(json::Writer &w, const introspect::Value &value)
{
    using Kind = introspect::Value::Kind;
    switch (value.kind()) {
      case Kind::Null:
        w.value(nullptr);
        break;
      case Kind::Bool:
        w.value(value.boolVal());
        break;
      case Kind::Int:
        w.value(value.intVal());
        break;
      case Kind::Float:
        w.value(value.floatVal());
        break;
      case Kind::Str:
        w.value(value.strVal());
        break;
      case Kind::List:
        w.beginArray();
        for (const auto &item : value.items())
            writeValue(w, item);
        w.endArray();
        break;
      case Kind::Dict:
        w.beginObject();
        for (const auto &e : value.entries()) {
            w.key(e.first);
            writeValue(w, e.second);
        }
        w.endObject();
        break;
    }
}

void
writeComponent(json::Writer &w, const sim::Component &component)
{
    w.beginObject();
    w.field("name", component.name());

    w.key("fields").beginArray();
    for (const auto &f : component.fields().all()) {
        introspect::Value v = f.getter();
        w.beginObject();
        w.field("name", f.name);
        w.field("type", v.typeName());
        w.key("value");
        writeValue(w, v);
        w.field("numeric", v.numeric());
        w.endObject();
    }
    w.endArray();

    w.key("ports").beginArray();
    for (const auto &p : component.ports()) {
        w.beginObject();
        w.field("name", p->name());
        w.field("buffer", p->buf().name());
        w.field("size", static_cast<std::int64_t>(p->buf().size()));
        w.field("capacity",
                static_cast<std::int64_t>(p->buf().capacity()));
        w.field("total_sent",
                static_cast<std::int64_t>(p->totalSent()));
        w.field("send_rejections",
                static_cast<std::int64_t>(p->totalSendRejections()));
        w.endObject();
    }
    w.endArray();

    w.key("buffers").beginArray();
    for (const sim::Buffer *b : component.buffers()) {
        sim::MsgPtr head = b->peek();
        w.beginObject();
        w.field("name", b->name());
        w.field("size", static_cast<std::int64_t>(b->size()));
        w.field("capacity", static_cast<std::int64_t>(b->capacity()));
        w.field("head_kind",
                head == nullptr ? std::string() : std::string(head->kind()));
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writeTree(json::Writer &w, const TreeNode &root)
{
    w.beginObject();
    w.field("label", root.label);
    if (!root.componentName.empty())
        w.field("component", root.componentName);
    if (!root.children.empty()) {
        w.key("children").beginArray();
        for (const auto &kv : root.children)
            writeTree(w, *kv.second);
        w.endArray();
    }
    w.endObject();
}

void
writeBuffers(json::Writer &w, const std::vector<BufferLevel> &levels)
{
    w.beginArray();
    for (const auto &l : levels) {
        w.beginObject();
        w.field("buffer", l.name);
        w.field("size", static_cast<std::int64_t>(l.size));
        w.field("cap", static_cast<std::int64_t>(l.capacity));
        w.field("percent", l.percent());
        w.field("head_kind", l.headKind);
        w.endObject();
    }
    w.endArray();
}

void
writeProgress(json::Writer &w, const std::vector<ProgressBar> &bars)
{
    w.beginArray();
    for (const auto &b : bars) {
        w.beginObject();
        w.field("id", b.id);
        w.field("label", b.label);
        w.field("total", b.total);
        w.field("completed", b.completed);
        w.field("in_progress", b.inProgress);
        w.field("not_started", b.notStarted());
        w.endObject();
    }
    w.endArray();
}

void
writeSeries(json::Writer &w, const TrackedSeries &series)
{
    w.beginObject();
    w.field("id", series.id);
    w.field("component", series.componentName);
    w.field("field", series.fieldName);
    w.key("points").beginArray();
    for (const auto &s : series.samples) {
        w.beginObject();
        w.field("t_ps", s.simTime);
        w.field("v", s.value);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace rtm
} // namespace akita
