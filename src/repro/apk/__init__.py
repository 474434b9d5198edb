"""APK model: manifest, resources, entry points, loader, (de)obfuscation."""
