package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Path, Paths}
import java.security.MessageDigest
import org.apache.spark.ListenerDrain
import org.apache.spark.sql.SparkSession
import repro.core._
import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** The benchmark process: one workload, one seed, one closed-loop client.
  *
  * {{{
  * Main --workload snb-m|job-lite|tpch-spark --seed N --seconds S --trace 0|1
  *      [--out DIR] [--source ID] [--commit ID]
  * }}}
  *
  * Set-up runs [[Main.SetupReps]] times from the same seed; the last
  * database is kept. The workload's untimed warm-up rounds follow, one
  * pass per configuration each; the passes of the reference configuration
  * (`duck`) fix each query's reference result.
  * Timed rounds follow until `--seconds` have passed: a round is one pass
  * per configuration, in order, so drift affects all configurations alike.
  * On a serial workload each query runs on the next CPU in turn
  * ([[CpuRing]]).
  * Every timed execution is checked against the reference after its clock
  * stops. With `--trace 1` every other round is traced; the tracing
  * overhead compares the wall time of traced and untraced passes, less the
  * time of the result checks.
  *
  * The last line of standard output is the JSON result: end-to-end metrics
  * with `--trace 0`, per-layer metrics with `--trace 1`.
  */
object Main {
  val SetupReps = 2
  val MinRounds = 2

  /** End-to-end metrics in the JSON result of every workload: name -> unit.
    * The JSON carries only the configurations every workload runs; the
    * report also prints `gflow`, the tails, `index_mb` and `failed_frac`.
    */
  val EndToEnd: ListMap[String, String] = ListMap(
    "setup_s" -> "s",
    "duck.pass_ms.p50" -> "ms", "rid_only.pass_ms.p50" -> "ms", "grain.pass_ms.p50" -> "ms",
    "duck.query_ms.p50" -> "ms", "grain.query_ms.p50" -> "ms")

  private val ExecCounters = Seq("scanned_rows", "zones_skipped", "hash_probes", "index_lookups",
    "scanned_per_result", "alloc_mb", "gc_ms", "self_ms")
  private val SparkCounterNames = Seq("jobs", "tasks", "shuffle_mb", "sip_filters", "rid_joins",
    "scanned_rows", "self_ms")
  private val GflowCounters = Seq("scanned_rows", "index_lookups", "extended_tuples",
    "property_reads", "alloc_mb", "gc_ms", "self_ms")

  private def unitOf(metric: String): String = metric.split('.').last match {
    case m if m.endsWith("_ms") || m == "ms" => "ms"
    case "plan.us" | "us"                    => "us"
    case "bytes"                             => "bytes"
    case m if m.endsWith("_mb")              => "MB"
    case "overhead_pct"                      => "%"
    case "scanned_per_result"                => "rows/row"
    case _                                   => "count"
  }

  /** Per-layer metrics reported by every workload (0 where a layer does
    * not run on it): name -> unit.
    */
  val PerLayer: ListMap[String, String] = ListMap((
    Seq("catalog.register_ms", "catalog.predefine_ms", "catalog.freeze_ms", "catalog.rid_index_ms",
      "catalog.dangling_fk_rows", "csr.entries", "csr.bytes",
      "store.load_ms", "store.value_index_ms", "store.rows") ++
    Seq("duck", "rid_only", "grain").flatMap(c =>
      Seq("us", "rid_edges", "fkfk_edges", "merged_leaves").map(s"$c.plan." + _)) ++
    Seq("duck", "rid_only", "grain").flatMap(c => ExecCounters.map(s"$c.exec." + _)) ++
    Seq("duck", "rid_only", "grain").flatMap(c => SparkCounterNames.map(s"$c.spark." + _)) ++
    GflowCounters.map("gflow." + _) ++
    Seq("check.ms", "trace.overhead_pct", "trace.instr_ms")
  ).map(m => m -> unitOf(m)): _*)

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        out: Path, source: String, commit: String)

  def parseArgs(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val wl = need("workload")
    require(Workloads.Names.contains(wl), s"unknown workload $wl; one of ${Workloads.Names.mkString(", ")}")
    Args(wl, need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
      Paths.get(kv.getOrElse("out", "perfbench/out")).toAbsolutePath, kv.getOrElse("source", "unknown"),
      kv.getOrElse("commit", "unknown"))
  }

  def main(argv: Array[String]): Unit = {
    val args = try parseArgs(argv) catch {
      case e: IllegalArgumentException => System.err.println(e.getMessage); sys.exit(2)
    }
    val (spark, pinned) = Env.session(args.out)
    val code = try {
      val r = new Run(spark, args).execute()
      println(Env.describe(pinned, args))
      r.report.foreach(println)
      println(r.json)
      0
    } catch {
      case NonFatal(e) => e.printStackTrace(); 1
    } finally spark.stop()
    sys.exit(code)
  }

  /** Canonical digest of a result: columns sorted by name, cells normalised
    * (doubles to 6 decimals, nulls as ∅), rows sorted.
    */
  def digest(r: Result): String = {
    def cell(v: Any): String = v match {
      case null                     => "∅"
      case d: Double                => f"$d%.6f"
      case f: Float                 => f"${f.toDouble}%.6f"
      case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
      case x                        => x.toString
    }
    val order = r.cols.indices.sortBy(r.cols(_))
    val lines = r.rows.map(row => order.map(i => cell(row(i))).mkString("\u0001")).sorted
    val md = MessageDigest.getInstance("SHA-256")
    md.update(order.map(r.cols(_)).mkString(",").getBytes(UTF_8))
    lines.foreach(l => md.update((l + "\n").getBytes(UTF_8)))
    md.digest().take(12).map(b => f"$b%02x").mkString + s"/${lines.size}"
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted; val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The highest integer percentile with at least ten samples above it, as
    * (percentile, nearest-rank value); None below eleven samples.
    */
  def tail(xs: Seq[Double]): Option[(Int, Double)] = {
    val n = xs.size
    val s = xs.sorted
    (99 to 1 by -1).iterator
      .map(p => p -> math.max(1, math.ceil(p / 100.0 * n).toInt))
      .find { case (_, rank) => n - rank >= 10 }
      .map { case (p, rank) => p -> s(rank - 1) }
  }
}

/** Pins and records the Spark settings of the run. */
object Env {
  def session(out: Path): (SparkSession, ListMap[String, String]) = {
    val n = math.min(4, Runtime.getRuntime.availableProcessors)
    val pinned = ListMap(
      "spark.master" -> s"local[$n]",
      "spark.sql.shuffle.partitions" -> "16",
      "spark.sql.autoBroadcastJoinThreshold" -> "-1",
      "spark.sql.optimizer.runtime.bloomFilter.enabled" -> "true",
      "spark.sql.adaptive.enabled" -> "true",
      "spark.ui.enabled" -> "false",
      "spark.driver.host" -> "127.0.0.1",
      "spark.local.dir" -> out.resolve("spark-local").toString,
      "spark.sql.warehouse.dir" -> out.resolve("spark-warehouse").toString)
    val b = SparkSession.builder().appName("perfbench")
    pinned.foreach { case (k, v) => b.config(k, v) }
    val spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    (spark, pinned)
  }

  def describe(pinned: ListMap[String, String], a: Main.Args): String = {
    val rt = Runtime.getRuntime
    val lines = Seq(
      s"workload=${a.workload} seed=${a.seed} seconds=${a.seconds} trace=${if (a.trace) 1 else 0}",
      s"nproc=${rt.availableProcessors} heap_max_mb=${rt.maxMemory / (1 << 20)} " +
        s"jvm_flags=${ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.filter(_.startsWith("-X")).mkString(",")} " +
        s"java=${System.getProperty("java.version")} spark=${org.apache.spark.SPARK_VERSION}",
      s"commit=${a.commit} source=${a.source}",
      "load: one process, one closed-loop client, queries back to back; " +
        "columnar engine and GraphflowSim serial") ++
      pinned.map { case (k, v) => s"pinned $k=$v" }
    lines.map("# " + _).mkString("\n")
  }
}

/** One benchmark run of one workload. */
final class Run(spark: SparkSession, a: Main.Args) {
  import Main._

  private val wl = Workloads(a.workload, Workloads.DefaultScale(a.workload))
  private val tracer = new Tracer
  private val sparkCounters = new SparkCounters
  spark.sparkContext.addSparkListener(sparkCounters)

  // untraced and traced pass times per config: the executor calls alone
  private val passMs = mutable.Map[(String, Boolean), mutable.ArrayBuffer[Double]]()
  // untraced and traced pass wall times per config, less the result checks
  private val workMs = mutable.Map[(String, Boolean), mutable.ArrayBuffer[Double]]()
  // per config, per query latencies of untraced passes
  private val queryMs = mutable.Map[String, mutable.LinkedHashMap[String, mutable.ArrayBuffer[Double]]]()
  // per-layer counters, one sample per traced pass
  private val layerSamples = mutable.Map[String, mutable.ArrayBuffer[Double]]()
  private val checkMs = mutable.ArrayBuffer[Double]()
  private val warmMs = mutable.Map[String, mutable.ArrayBuffer[Double]]()
  private val reference = mutable.Map[String, String]()
  private val failures = mutable.ArrayBuffer[String]()
  private var cat: GrainCatalog = _
  private var attempted = 0
  private var passNo = 0
  // serial workloads run each query on the next CPU in turn
  private val ring = if (wl.serial) Some(new CpuRing) else None
  private var failed = 0

  private def sample(buf: mutable.Map[String, mutable.ArrayBuffer[Double]], k: String, v: Double): Unit =
    buf.getOrElseUpdate(k, mutable.ArrayBuffer()) += v

  def execute(): Run.Outcome = {
    tracer.on = a.trace
    val (db, setupS, stepMs, engines) = tracer.span("workload", wl.name) {
      val (db, setupS, stepMs) = setupAll()
      cat = db.cat
      val engines = wl.engines(db)
      System.gc() // the set-ups' garbage goes now, not during the passes
      tracer.span("warmup") {
        tracer.on = false
        (1 to wl.warmupRounds).foreach(i => engines.foreach(e => pass(e, round = -i, timed = false)))
      }
      val t0 = System.nanoTime()
      var round = 0
      while (round < MinRounds || (System.nanoTime() - t0) / 1e9 < a.seconds) {
        tracer.on = a.trace && round % 2 == 1
        tracer.span("round", round.toString)(engines.foreach(e => pass(e, round, timed = true)))
        round += 1
      }
      ring.foreach(_.close())
      (db, setupS, stepMs, engines)
    }
    tracer.on = false
    ListenerDrain(spark.sparkContext)

    val report = mutable.ArrayBuffer[String]()
    val e2e = endToEnd(db, setupS, engines.map(_.cfg), report)
    val metrics =
      if (!a.trace) e2e
      else {
        val layers = perLayer(db, stepMs, engines)
        report += "-- per-layer (median per traced pass; set-up steps median of set-ups)"
        layers.foreach { case (k, v) => report += f"  $k%-32s $v%14.3f ${PerLayer(k)}" }
        report ++= selfTimes()
        val f = a.out.resolve(s"trace-${wl.name}-seed${a.seed}.json")
        tracer.writeJson(f)
        report += s"-- trace written to $f (${tracer.spans.size} spans)"
        layers
      }
    failures.take(10).foreach(f => report += s"FAILED $f")
    val units = if (a.trace) PerLayer else EndToEnd
    val body = metrics.map { case (k, v) =>
      s"${Json.str(k)}: {\"value\": ${fmtNum(v)}, \"unit\": ${Json.str(units(k))}}"
    }.mkString(", ")
    Run.Outcome(report.toSeq,
      s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": {$body}}""")
  }

  private def fmtNum(v: Double): String =
    if (v.isNaN || v.isInfinite) "null" else java.math.BigDecimal.valueOf(v).toPlainString

  /** SetupReps set-ups; the median total and, per step, the median time. */
  private def setupAll(): (Db, Double, Map[String, Double]) = {
    var db: Db = null
    val totals = mutable.ArrayBuffer[Double]()
    val steps = mutable.ArrayBuffer[mutable.LinkedHashMap[String, Double]]()
    (1 to SetupReps).foreach { rep =>
      db = null
      spark.catalog.clearCache()
      System.gc()
      val st = new Steps(tracer)
      val t0 = System.nanoTime()
      db = tracer.span("setup", rep.toString)(wl.setup(spark, a.seed, st))
      totals += (System.nanoTime() - t0) / 1e9
      steps += st.ms
    }
    val stepMed = steps.head.keys.map(k => k -> median(steps.map(_(k)).toSeq)).toMap
    (db, median(totals.toSeq), stepMed)
  }

  private def onCpu[A](i: Int)(body: => A): A = ring.fold(body)(_(i)(body))

  private def pass(e: Engine, round: Int, timed: Boolean): Unit = tracer.span("pass", e.cfg) {
    passNo += 1
    val traced = tracer.on
    val acc = mutable.LinkedHashMap[String, Double]().withDefaultValue(0.0)
    val sc = spark.sparkContext
    var passNs = 0L
    var checkNs = 0L
    val w0 = System.nanoTime()
    wl.queries.zipWithIndex.foreach { case (q, qi) => onCpu(passNo + qi) {
      tracer.span("query", q.name) {
        if (traced) e.grain.foreach(g => planStats(q, g, acc))
        val (a0, g0) = if (traced) (Jvm.allocatedBytes, Jvm.gcMs) else (0L, 0L)
        if (traced) sc.setLocalProperty(SparkCounters.Key, s"${e.cfg}#$round")
        val t0 = System.nanoTime()
        val res = try Right(e.run(q)) catch { case NonFatal(x) => Left(x) }
        val t1 = System.nanoTime()
        sc.setLocalProperty(SparkCounters.Key, null)
        val (a1, g1) = if (traced) (Jvm.allocatedBytes, Jvm.gcMs) else (0L, 0L)
        tracer.record("exec", e.cfg, t0, t1)
        passNs += t1 - t0
        if (timed && !traced)
          queryMs.getOrElseUpdate(e.cfg, mutable.LinkedHashMap())
            .getOrElseUpdate(q.name, mutable.ArrayBuffer()) += (t1 - t0) / 1e6
        val c0 = System.nanoTime()
        tracer.span("check", q.name) {
          val got = res.flatMap(thunk =>
            try { val r = thunk(); Right((digest(r), r.counts)) } catch { case NonFatal(x) => Left(x) })
          if (round < 0 && e.cfg == "duck") got.foreach { case (d, _) => reference(q.name) = d }
          if (timed) {
            attempted += 1
            val ok = got match {
              case Right((d, _)) if reference.get(q.name).contains(d) => true
              case Right((d, _)) =>
                failures += s"${e.cfg} ${q.name}: result $d, reference ${reference.getOrElse(q.name, "missing")}"
                false
              case Left(x) =>
                failures += s"${e.cfg} ${q.name}: ${x.getClass.getSimpleName}: ${x.getMessage}"
                false
            }
            if (!ok) failed += 1
          }
          if (traced) got.foreach { case (_, counts) => counts.foreach { case (k, v) => acc(k) += v } }
        }
        checkNs += System.nanoTime() - c0
        if (traced) {
          acc("alloc_mb") += (a1 - a0) / 1e6
          acc("gc_ms") += (g1 - g0).toDouble
        }
      }
    }}
    if (!timed) sample(warmMs, e.cfg, passNs / 1e6)
    if (timed) {
      passMs.getOrElseUpdate((e.cfg, traced), mutable.ArrayBuffer()) += passNs / 1e6
      workMs.getOrElseUpdate((e.cfg, traced), mutable.ArrayBuffer()) +=
        (System.nanoTime() - w0 - checkNs) / 1e6
      checkMs += checkNs / 1e6
    }
    if (timed && traced) {
      val prefix = if (e.layer == "gflow") "gflow." else s"${e.cfg}.${e.layer}."
      acc.foreach { case (k, v) =>
        if (k.startsWith("plan.")) sample(layerSamples, s"${e.cfg}.$k", v)
        else if (k != "result_rows") sample(layerSamples, prefix + k, v)
      }
      if (e.layer == "exec")
        sample(layerSamples, prefix + "scanned_per_result",
          acc("scanned_rows") / math.max(1.0, acc("result_rows")))
    }
  }

  /** The plan decisions the executors make, recomputed outside them. */
  private def planStats(q: Query, g: GrainConfig, acc: mutable.Map[String, Double]): Unit =
    tracer.span("plan", q.name) {
      val t0 = System.nanoTime()
      val (joins, merged, _) = JoinMerge.preprocess(q, q.plan, cat, enabled = g.ridJoins && g.joinMerge)
      val rw = if (g.ridJoins) joins.flatMap(j => Rewrites.resolve(cat, q, j)) else Nil
      acc("plan.us") += (System.nanoTime() - t0) / 1e3
      acc("plan.rid_edges") += rw.count(_.isInstanceOf[Rewrites.FkPk])
      acc("plan.fkfk_edges") += rw.count(_.isInstanceOf[Rewrites.FkFk])
      acc("plan.merged_leaves") += merged.size
    }

  private def endToEnd(db: Db, setupS: Double, cfgs: Seq[String],
                       report: mutable.ArrayBuffer[String]): ListMap[String, Double] = {
    val out = mutable.LinkedHashMap[String, Double]("setup_s" -> setupS)
    report += f"-- end-to-end (${wl.name}, ${wl.queries.size} queries per pass)"
    def line(name: String, v: Double, unit: String, n: String): Unit =
      report += f"  $name%-30s $v%12.4f $unit%-4s  ($n)"
    line("setup_s", setupS, "s", s"median of $SetupReps set-ups")
    line("index_mb", db.cat.ridIndices.values.map(_.sizeBytes).sum / 1e6, "MB",
      s"${db.cat.ridIndices.size} RID indices")
    line("failed_frac", failed.toDouble / math.max(1, attempted), "", s"$failed of $attempted executions")
    cfgs.foreach { c =>
      passMs.get((c, false)).foreach { xs =>
        val passes = s"n=${xs.size} passes"
        out(s"$c.pass_ms.p50") = median(xs.toSeq)
        line(s"$c.pass_ms.p50", out(s"$c.pass_ms.p50"), "ms", passes)
        tail(xs.toSeq) match {
          case Some((p, v)) => line(s"$c.pass_ms.tail", v, "ms", s"p$p of $passes")
          case None => report += f"  ${c + ".pass_ms.tail"}%-30s ${"n/a"}%12s       ($passes, 11 needed)"
        }
        report += "    warm-up passes (ms): " + warmMs(c).map(x => f"$x%.1f").mkString(" ")
        report += "    passes (ms): " + xs.map(x => f"$x%.1f").mkString(" ")
        val perQuery = queryMs(c)
        out(s"$c.query_ms.p50") = median(perQuery.values.map(v => median(v.toSeq)).toSeq)
        line(s"$c.query_ms.p50", out(s"$c.query_ms.p50"), "ms",
          s"median over ${perQuery.size} queries of each one's median over ${xs.size} runs")
        report += "    per-query medians (ms): " +
          perQuery.map { case (q, v) => f"$q ${median(v.toSeq)}%.3f" }.mkString(", ")
      }
    }
    ListMap(EndToEnd.keys.toSeq.filter(out.contains).map(k => k -> out(k)): _*)
  }

  private def perLayer(db: Db, stepMs: Map[String, Double], engines: Seq[Engine]): ListMap[String, Double] = {
    val v = mutable.Map[String, Double]().withDefaultValue(0.0)
    Seq("register", "predefine", "freeze", "rid_index").foreach(s =>
      v(s"catalog.${s}_ms") = stepMs.getOrElse(s"catalog.$s", 0.0))
    v("catalog.dangling_fk_rows") = db.cat.danglingCounts.values.sum.toDouble
    v("csr.entries") = db.cat.ridIndices.values.map(_.nEntries.toLong).sum.toDouble
    v("csr.bytes") = db.cat.ridIndices.values.map(_.sizeBytes).sum.toDouble
    v("store.load_ms") = stepMs.getOrElse("store.load", 0.0)
    v("store.value_index_ms") = stepMs.getOrElse("store.value_index", 0.0)
    v("store.rows") = db.store.map(_.tables.values.map(_.numRows.toLong).sum).getOrElse(0L).toDouble
    layerSamples.foreach { case (k, xs) => if (PerLayer.contains(k)) v(k) = median(xs.toSeq) }

    // self time of executor calls, per traced pass, from the span tree
    val self = tracer.selfNs
    val byId = tracer.spans.map(s => s.id -> s).toMap
    def passOf(s: Span): Option[Span] =
      Iterator.iterate(byId.get(s.parent))(_.flatMap(p => byId.get(p.parent)))
        .takeWhile(_.isDefined).flatten.find(_.name == "pass")
    val execSelf = tracer.spans.filter(_.name == "exec")
      .groupBy(s => passOf(s).map(_.id)).collect { case (Some(pid), ss) =>
        byId(pid).tag -> ss.map(s => self(s.id) / 1e6).sum
      }.groupMap(_._1)(_._2)
    engines.foreach { e =>
      val key = if (e.layer == "gflow") "gflow.self_ms" else s"${e.cfg}.${e.layer}.self_ms"
      execSelf.get(e.cfg).foreach(xs => v(key) = median(xs.toSeq))
    }

    // Spark jobs, tasks and shuffle bytes per traced pass
    val spk = sparkCounters.snapshot.toSeq.map { case (k, t) => k.takeWhile(_ != '#') -> t }.groupMap(_._1)(_._2)
    spk.foreach { case (cfg, ts) =>
      v(s"$cfg.spark.jobs") = median(ts.map(_._1.toDouble))
      v(s"$cfg.spark.tasks") = median(ts.map(_._2.toDouble))
      v(s"$cfg.spark.shuffle_mb") = median(ts.map(_._3 / 1e6))
    }
    v("check.ms") = if (checkMs.isEmpty) 0.0 else median(checkMs.toSeq)

    // Tracing overhead: pass wall time less checks, traced against untraced.
    // The instrumentation time is the part of that outside the executor
    // calls: spans, plan recomputation, JMX reads and Spark properties.
    def med(m: mutable.Map[(String, Boolean), mutable.ArrayBuffer[Double]], traced: Boolean) =
      engines.flatMap(e => m.get((e.cfg, traced))).map(xs => median(xs.toSeq)).sum
    val bothSides = engines.forall(e => workMs.contains((e.cfg, false)) && workMs.contains((e.cfg, true)))
    if (bothSides) {
      v("trace.overhead_pct") = 100.0 * (med(workMs, true) / med(workMs, false) - 1)
      v("trace.instr_ms") = (med(workMs, true) - med(passMs, true)) - (med(workMs, false) - med(passMs, false))
    }
    ListMap(PerLayer.keys.toSeq.map(k => k -> v(k)): _*)
  }

  private def selfTimes(): Seq[String] = {
    val self = tracer.selfNs
    val rows = tracer.spans.groupBy(_.name).toSeq.map { case (n, ss) =>
      (n, ss.size, ss.map(_.ns).sum / 1e6, ss.map(s => self(s.id)).sum / 1e6)
    }.sortBy(-_._4)
    "-- spans by name: count, total ms, self ms" +:
      rows.map { case (n, c, tot, s) => f"  $n%-22s $c%7d $tot%12.1f $s%12.1f" }
  }
}

object Run {
  final case class Outcome(report: Seq[String], json: String)
}
