package org.apache.spark

/** Waits until every event posted so far has reached the registered
  * listeners, so counts read from a listener afterwards are complete.
  * The listener bus is private to the `org.apache.spark` package.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
