package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}
import java.util.concurrent.{Callable, ExecutionException, ExecutorService, Executors}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One finished timed interval: a call into a layer. `parent` is -1 at the root. */
final case class Span(id: Int, parent: Int, name: String, tag: String, start: Long, end: Long) {
  def ns: Long = end - start
}

/** In-memory span tree of one run, written out as JSON when the run ends.
  * Spans nest strictly (one thread, a stack), so the children of a span
  * never overlap and its self time is its duration minus their sum.
  * While `on` is false every call is a plain pass-through.
  */
final class Tracer {
  var on = false
  private val done = mutable.ArrayBuffer[Span]()
  private var open = List.empty[(Int, String, String, Long)]
  private var nextId = 0

  private def parent: Int = open.headOption.map(_._1).getOrElse(-1)

  def span[A](name: String, tag: String = "")(body: => A): A =
    if (!on) body
    else {
      val id = nextId; nextId += 1
      open = (id, name, tag, System.nanoTime()) :: open
      try body
      finally {
        val (_, n, t, start) = open.head
        open = open.tail
        done += Span(id, parent, n, t, start, System.nanoTime())
      }
    }

  /** A child of the open span whose interval the caller timed itself. */
  def record(name: String, tag: String, start: Long, end: Long): Unit =
    if (on) { done += Span(nextId, parent, name, tag, start, end); nextId += 1 }

  def spans: Seq[Span] = done.toSeq

  def selfNs: Map[Int, Long] = {
    val childNs = done.groupMapReduce(_.parent)(_.ns)(_ + _)
    done.map(s => s.id -> (s.ns - childNs.getOrElse(s.id, 0L))).toMap
  }

  def writeJson(path: Path): Unit = {
    val self = selfNs
    val t0 = if (done.isEmpty) 0L else done.map(_.start).min
    val sb = new StringBuilder("[\n")
    done.sortBy(_.id).zipWithIndex.foreach { case (s, i) =>
      if (i > 0) sb ++= ",\n"
      sb ++= s"""{"id":${s.id},"parent":${s.parent},"name":${Json.str(s.name)},"tag":${Json.str(s.tag)},""" +
        s""""start_us":${(s.start - t0) / 1000},"dur_us":${s.ns / 1000},"self_us":${self(s.id) / 1000}}"""
    }
    sb ++= "\n]\n"
    Files.createDirectories(path.getParent)
    Files.write(path, sb.toString.getBytes(UTF_8))
  }
}

/** JVM counters read around each executor call (JMX). */
object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes: Long = threads.getCurrentThreadAllocatedBytes
  /** Milliseconds spent in GC so far, all collectors. */
  def gcMs: Long = gcs.map(_.getCollectionTime.max(0L)).sum
}

/** Spark job, task and shuffle-write totals per key. The key is the local
  * property [[SparkCounters.Key]] set on the calling thread when the job
  * was submitted; jobs without it are not counted.
  */
final class SparkCounters extends SparkListener {
  private val stageKey = mutable.Map[Int, String]()
  private val totals = mutable.Map[String, Array[Long]]()

  private def add(key: String, jobs: Long, tasks: Long, bytes: Long): Unit = {
    val t = totals.getOrElseUpdate(key, new Array[Long](3))
    t(0) += jobs; t(1) += tasks; t(2) += bytes
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(SparkCounters.Key))).foreach { k =>
      e.stageIds.foreach(stageKey(_) = k)
      add(k, 1, 0, 0)
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageKey.get(e.stageId).foreach { k =>
      val bytes = Option(e.taskMetrics).map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L)
      add(k, 0, 1, bytes)
    }
  }

  /** (jobs, tasks, shuffle bytes) per key; drain the listener bus first. */
  def snapshot: Map[String, (Long, Long, Long)] = synchronized {
    totals.map { case (k, t) => k -> ((t(0), t(1), t(2))) }.toMap
  }
}

object SparkCounters {
  val Key = "perfbench.call"
}

/** Minimal JSON string escaping for the report and the trace file. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'           => "\\\""
      case '\\'          => "\\\\"
      case c if c < ' '  => f"\\u${c.toInt}%04x"
      case c             => c.toString
    } + "\""
}

/** Serial execution spread over the CPUs. The CPUs of a shared host slow
  * down and speed up independently of each other, for seconds to minutes at
  * a time, so a serial run that stays on one CPU reads that CPU's state.
  * The ring keeps one worker thread per CPU, each restricted to its CPU
  * with `taskset`; `apply(i)` runs a call on worker `i` mod the CPU count
  * and waits for it, so one call runs at a time and successive calls
  * sample every CPU alike. Without `taskset` the workers are not pinned.
  */
final class CpuRing extends AutoCloseable {
  private val n = Runtime.getRuntime.availableProcessors
  private val workers: IndexedSeq[ExecutorService] = (0 until n).map { cpu =>
    val w = Executors.newSingleThreadExecutor { (r: Runnable) =>
      val t = new Thread(r, s"perfbench-cpu$cpu"); t.setDaemon(true); t
    }
    w.submit(new Runnable { def run(): Unit = CpuRing.pinCaller(cpu) }).get()
    w
  }

  def apply[A](i: Int)(body: => A): A =
    try workers(i % n).submit(new Callable[A] { def call(): A = body }).get()
    catch { case e: ExecutionException => throw e.getCause }

  def close(): Unit = workers.foreach(_.shutdownNow())
}

object CpuRing {
  /** Restricts the calling thread (not the process) to `cpu`. */
  def pinCaller(cpu: Int): Unit = scala.util.Try {
    val tid = Files.readSymbolicLink(Paths.get("/proc/thread-self")).getFileName.toString
    new ProcessBuilder("taskset", "-pc", cpu.toString, tid)
      .redirectErrorStream(true).redirectOutput(ProcessBuilder.Redirect.DISCARD)
      .start().waitFor()
  }
}
